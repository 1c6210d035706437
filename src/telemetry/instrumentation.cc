#include "instrumentation.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "os/task.h"
#include "util/logging.h"

namespace pcon {
namespace telemetry {

namespace {

/** Request-energy bucket bounds, Joules (log-ish spacing). */
std::vector<double>
energyBounds()
{
    return {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
}

/** Response-time bucket bounds, milliseconds. */
std::vector<double>
latencyBounds()
{
    return {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0,
            10000.0};
}

/** Request mean-power bucket bounds, Watts. */
std::vector<double>
powerBounds()
{
    return {1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0};
}

} // namespace

SystemTelemetry::SystemTelemetry(Registry &registry,
                                 os::Kernel &kernel)
    : registry_(registry), kernel_(kernel),
      switches_(registry.counter("kernel.context_switches")),
      rebinds_(registry.counter("kernel.context_rebinds")),
      interrupts_(registry.counter("kernel.sampling_interrupts")),
      ioCompletions_(registry.counter("kernel.io_completions")),
      taskExits_(registry.counter("kernel.task_exits")),
      actuations_(registry.counter("kernel.actuations")),
      ioBytes_(registry.counter("kernel.io_bytes")),
      requestsCreated_(registry.counter("requests.created")),
      requestsCompleted_(registry.counter("requests.completed")),
      requestsActive_(registry.gauge("requests.active")),
      requestEnergyJ_(
          registry.histogram("requests.energy_j", energyBounds())),
      requestResponseMs_(registry.histogram("requests.response_ms",
                                            latencyBounds())),
      requestMeanPowerW_(registry.histogram("requests.mean_power_w",
                                            powerBounds()))
{
    kernel_.requests().onCreate([this](const os::RequestInfo &) {
        requestsCreated_.add();
        requestsActive_.add(1.0);
    });
    kernel_.requests().onComplete([this](const os::RequestInfo &info) {
        requestsCompleted_.add();
        requestsActive_.add(-1.0);
        requestResponseMs_.observe(
            sim::toMillis(info.completed - info.created));
        // With a watched manager, its completion listener ran first
        // (it subscribed at construction) and recorded the final
        // energy totals; newest record first.
        if (manager_ != nullptr) {
            const auto &records = manager_->records();
            for (auto it = records.rbegin(); it != records.rend();
                 ++it) {
                if (it->id != info.id)
                    continue;
                requestEnergyJ_.observe(it->totalEnergyJ().value());
                requestMeanPowerW_.observe(it->meanPowerW.value());
                break;
            }
        }
    });
    // Load gauges are pull-style: refreshed per snapshot.
    registry_.addCollector([this] {
        registry_.gauge("kernel.live_tasks")
            .set(static_cast<double>(kernel_.liveTaskCount()));
        registry_.gauge("kernel.total_load")
            .set(static_cast<double>(kernel_.totalLoad()));
        registry_.gauge("machine.energy_j")
            .set(kernel_.machine().machineEnergyJ().value());
    });
}

void
SystemTelemetry::onContextSwitch(int core, os::Task *prev,
                                 os::Task *next)
{
    (void)core; (void)prev; (void)next;
    switches_.add();
}

void
SystemTelemetry::onContextRebind(os::Task &task, os::RequestId old_ctx,
                                 os::RequestId new_ctx)
{
    (void)task; (void)old_ctx; (void)new_ctx;
    rebinds_.add();
}

void
SystemTelemetry::onSamplingInterrupt(int core)
{
    (void)core;
    interrupts_.add();
}

void
SystemTelemetry::onIoComplete(hw::DeviceKind device,
                              os::RequestId context,
                              sim::SimTime busy_time, double bytes)
{
    (void)device; (void)context; (void)busy_time;
    ioCompletions_.add();
    ioBytes_.add(static_cast<std::uint64_t>(bytes));
}

void
SystemTelemetry::onTaskExit(os::Task &task)
{
    (void)task;
    taskExits_.add();
}

void
SystemTelemetry::onActuation(int core, int duty_level, int pstate)
{
    (void)core; (void)duty_level; (void)pstate;
    actuations_.add();
}

void
SystemTelemetry::watch(core::ContainerManager &manager)
{
    manager_ = &manager;
    double observer_cycles =
        manager.config().observerCost.nonhaltCycles;
    // Maintenance-op counter advances by delta so external resets
    // (none today) cannot run it backwards.
    auto last_ops = std::make_shared<std::uint64_t>(0);
    registry_.addCollector([this, &manager, observer_cycles,
                            last_ops] {
        registry_.gauge("containers.live")
            .set(static_cast<double>(manager.live().size()));
        registry_.gauge("containers.accounted_energy_j")
            .set(manager.accountedEnergyJ().value());
        registry_.gauge("containers.background_energy_j")
            .set(manager.background().totalEnergyJ().value());
        std::uint64_t ops = manager.maintenanceOps();
        if (ops > *last_ops) {
            registry_.counter("containers.maintenance_ops")
                .add(ops - *last_ops);
            *last_ops = ops;
        }
        // The Section 3.5 deterministic overhead figure: modeled
        // bookkeeping cycles spent on container maintenance so far.
        registry_.gauge("overhead.modeled_maintenance_cycles")
            .set(static_cast<double>(ops) * observer_cycles);
        if (perfetto_ != nullptr)
            perfetto_->samplePower(manager);
    });
}

void
SystemTelemetry::watch(core::OnlineRecalibrator &recalibrator)
{
    recalibrator.onRefit(
        [this](const core::OnlineRecalibrator::RefitEvent &event) {
            registry_.counter("recalibration.refits").add();
            registry_.gauge("recalibration.online_samples")
                .set(static_cast<double>(event.onlineSamples));
            if (perfetto_ != nullptr)
                perfetto_->noteRefit(event.index,
                                     event.onlineSamples);
        });
    // Degradation counters advance by delta: the recalibrator keeps
    // cumulative tallies, the registry wants monotone counters.
    auto last_skipped = std::make_shared<std::uint64_t>(0);
    auto last_rejected = std::make_shared<std::uint64_t>(0);
    auto last_samples = std::make_shared<std::uint64_t>(0);
    auto last_low_conf = std::make_shared<std::uint64_t>(0);
    registry_.addCollector([this, &recalibrator, last_skipped,
                            last_rejected, last_samples,
                            last_low_conf] {
        registry_.gauge("recalibration.delay_ms")
            .set(sim::toMillis(recalibrator.estimatedDelay()));
        registry_.gauge("recalibration.aligned")
            .set(recalibrator.aligned() ? 1.0 : 0.0);
        registry_.gauge("recalibration.online_samples")
            .set(static_cast<double>(
                recalibrator.onlineSampleCount()));
        registry_.gauge("recalibration.alignment_confidence")
            .set(recalibrator.lastAlignmentConfidence());
        auto bump = [this](const char *name, std::uint64_t now_v,
                           std::uint64_t &last_v) {
            if (now_v > last_v)
                registry_.counter(name).add(now_v - last_v);
            last_v = now_v > last_v ? now_v : last_v;
        };
        bump("recalibration.refits_skipped",
             recalibrator.refitsSkipped(), *last_skipped);
        bump("recalibration.refits_rejected",
             recalibrator.refitsRejected(), *last_rejected);
        bump("recalibration.samples_rejected",
             recalibrator.samplesRejected(), *last_samples);
        bump("recalibration.low_confidence_alignments",
             recalibrator.lowConfidenceAlignments(), *last_low_conf);
    });
}

void
SystemTelemetry::watch(core::PowerConditioner &conditioner)
{
    registry_.addCollector([this, &conditioner] {
        // stats() is an unordered map; aggregate in sorted-id order
        // so floating-point sums stay bit-identical across runs.
        std::vector<const core::ThrottleStats *> stats;
        stats.reserve(conditioner.stats().size());
        // pcon-lint: allow(unordered-iteration) sorted before use
        for (const auto &kv : conditioner.stats())
            stats.push_back(&kv.second);
        std::sort(stats.begin(), stats.end(),
                  [](const core::ThrottleStats *a,
                     const core::ThrottleStats *b) {
                      return a->id < b->id;
                  });
        double fraction_sum = 0;
        std::uint64_t observations = 0;
        std::size_t throttled = 0;
        for (const core::ThrottleStats *s : stats) {
            fraction_sum += s->meanDutyFraction;
            observations += s->observations;
            if (s->meanDutyFraction < 1.0)
                ++throttled;
        }
        registry_.gauge("conditioning.tracked_requests")
            .set(static_cast<double>(stats.size()));
        registry_.gauge("conditioning.throttled_requests")
            .set(static_cast<double>(throttled));
        registry_.gauge("conditioning.mean_speed_fraction")
            .set(stats.empty()
                     ? 1.0
                     : fraction_sum /
                           static_cast<double>(stats.size()));
        registry_.gauge("conditioning.observations")
            .set(static_cast<double>(observations));
    });
}

void
SystemTelemetry::watch(audit::InvariantAuditor &auditor)
{
    registry_.addCollector([this, &auditor] {
        registry_.gauge("audit.sweeps")
            .set(static_cast<double>(auditor.auditsRun()));
        registry_.gauge("audit.violations")
            .set(static_cast<double>(auditor.violationsDetected()));
    });
}

void
SystemTelemetry::watch(core::PowerAnomalyDetector &detector)
{
    registry_.counter("anomaly.scans_total");
    registry_.counter("anomaly.flagged_total");
    registry_.counter("anomaly.flagged_live_total");
    registry_.addCollector([this, &detector] {
        std::vector<core::PowerAnomaly> found = detector.scan();
        registry_.counter("anomaly.scans_total").add();
        std::size_t live = 0;
        for (const core::PowerAnomaly &a : found)
            if (a.live)
                ++live;
        if (!found.empty()) {
            registry_.counter("anomaly.flagged_total")
                .add(found.size());
            if (live > 0)
                registry_.counter("anomaly.flagged_live_total")
                    .add(live);
        }
        registry_.gauge("anomaly.flagged")
            .set(static_cast<double>(detector.flagged().size()));
        registry_.gauge("anomaly.baseline_samples")
            .set(static_cast<double>(detector.fleet().count()));
        registry_.gauge("anomaly.fleet_mean_w")
            .set(detector.fleet().mean());
        registry_.gauge("anomaly.fleet_stddev_w")
            .set(detector.fleet().stddev());
    });
}

void
SystemTelemetry::attachPerfetto(PerfettoExporter &exporter)
{
    perfetto_ = &exporter;
}

void
attachLogMetrics(Registry &registry)
{
    auto last = std::make_shared<util::LogCounts>(util::logCounts());
    registry.counter("log.debug_total");
    registry.counter("log.info_total");
    registry.counter("log.warn_total");
    registry.counter("log.error_total");
    registry.addCollector([&registry, last] {
        const util::LogCounts &now = util::logCounts();
        auto bump = [&](const char *name, std::uint64_t now_v,
                        std::uint64_t &last_v) {
            if (now_v > last_v)
                registry.counter(name).add(now_v - last_v);
            last_v = now_v > last_v ? now_v : last_v;
        };
        bump("log.debug_total", now.debug, last->debug);
        bump("log.info_total", now.info, last->info);
        bump("log.warn_total", now.warn, last->warn);
        bump("log.error_total", now.error, last->error);
    });
}

} // namespace telemetry
} // namespace pcon
