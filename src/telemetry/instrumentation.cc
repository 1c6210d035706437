#include "instrumentation.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
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

/** Cycle-scale bucket bounds shared by the overhead histograms. */
std::vector<double>
cycleBounds()
{
    return {50,    100,   200,    500,    1000,   2000,  5000,
            10000, 20000, 50000,  100000, 500000, 1e6};
}

/** The kernel.* counter published for each hook kind it names. */
constexpr std::pair<os::Hook, const char *> kernelHookCounters[] = {
    {os::Hook::ContextSwitch, "kernel.context_switches"},
    {os::Hook::ContextRebind, "kernel.context_rebinds"},
    {os::Hook::SamplingInterrupt, "kernel.sampling_interrupts"},
    {os::Hook::IoComplete, "kernel.io_completions"},
    {os::Hook::TaskExit, "kernel.task_exits"},
    {os::Hook::Actuation, "kernel.actuations"},
};

/**
 * Per os::Hook kind: its perf.* class name and, for the classes the
 * Section 3.5 breakdown reports, its overhead.* histogram.
 */
constexpr std::pair<const char *, const char *> hookClasses[] = {
    {"context_switch", "overhead.context_switch_cycles"},
    {"context_rebind", "overhead.rebind_cycles"},
    {"sampling_window", "overhead.sampling_window_cycles"},
    {"io_complete", "overhead.io_complete_cycles"},
    {"task_exit", nullptr},
    {"fork", nullptr},
    {"segment_received", nullptr},
    {"actuation", "overhead.actuation_cycles"},
};
static_assert(std::size(hookClasses) == os::NumHooks);

/** Bytes both device classes completed. */
std::uint64_t
deviceBytes(const os::Kernel &kernel)
{
    return kernel.deviceBytes(hw::DeviceKind::Disk) +
        kernel.deviceBytes(hw::DeviceKind::Net);
}

} // namespace

SystemTelemetry::SystemTelemetry(Registry &registry,
                                 os::Kernel &kernel)
    : registry_(registry), kernel_(kernel),
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
    });
    // The kernel.* counters publish what the kernel counted since
    // construction; they and the load gauges refresh per snapshot.
    for (const auto &[hook, name] : kernelHookCounters)
        kernelCounts_.push_back(
            {&registry_.counter(name), kernel_.hookCalls(hook)});
    kernelCounts_.push_back(
        {&registry_.counter("kernel.io_bytes"), deviceBytes(kernel_)});
    registry_.addCollector([this] {
        for (std::size_t i = 0; i < std::size(kernelHookCounters); ++i)
            kernelCounts_[i].advance(
                kernel_.hookCalls(kernelHookCounters[i].first));
        kernelCounts_.back().advance(deviceBytes(kernel_));
        registry_.gauge("kernel.live_tasks")
            .set(static_cast<double>(kernel_.liveTaskCount()));
        registry_.gauge("kernel.total_load")
            .set(static_cast<double>(kernel_.totalLoad()));
        registry_.gauge("machine.energy_j")
            .set(kernel_.machine().machineEnergyJ().value());
    });
}

void
SystemTelemetry::watch(core::ContainerManager &manager)
{
    manager.onRecord([this](const core::RequestRecord &record) {
        requestEnergyJ_.observe(record.totalEnergyJ().value());
        requestMeanPowerW_.observe(record.meanPowerW.value());
    });
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
profileHooks(Registry &registry, os::Kernel &kernel, double cpu_freq_hz)
{
    util::fatalIf(cpu_freq_hz <= 0, "cpu frequency must be positive");
    struct Cost
    {
        Counter *calls;
        Counter *cycles;
        Histogram *hist;
    };
    std::array<Cost, os::NumHooks> costs;
    for (std::size_t k = 0; k < os::NumHooks; ++k) {
        const auto &[cls, hist] = hookClasses[k];
        std::string base = std::string("perf.") + cls;
        costs[k] = {&registry.counter(base + ".calls"),
                    &registry.counter(base + ".cycles"),
                    hist == nullptr
                        ? nullptr
                        : &registry.histogram(hist, cycleBounds())};
    }
    Counter *calls = &registry.counter("overhead.hook_calls");
    double cycles_per_ns = cpu_freq_hz * 1e-9;
    kernel.timeHooks([calls, costs, cycles_per_ns](
                         os::Hook kind, std::size_t, std::int64_t ns) {
        const Cost &cost = costs[static_cast<std::size_t>(kind)];
        double cycles = static_cast<double>(ns) * cycles_per_ns;
        calls->add();
        cost.calls->add();
        cost.cycles->add(
            static_cast<std::uint64_t>(cycles < 0 ? 0 : cycles));
        if (cost.hist != nullptr)
            cost.hist->observe(cycles);
    });
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
