#include <memory>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "telemetry/instrumentation.h"
#include "telemetry/perfetto.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "util/logging.h"

namespace pcon::telemetry {
namespace {

using hw::ActivityVector;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::RequestId;
using os::ScriptedLogic;
using os::Task;
using sim::msec;
using sim::sec;

struct TelemetryWorld
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<core::LinearPowerModel> model;
    core::ContainerManager manager;
    Registry registry;
    SystemTelemetry telemetry;

    TelemetryWorld()
        : machine(sim, config()), kernel(machine, requests),
          model(makeModel()), manager(kernel, model, {}),
          telemetry(registry, kernel)
    {
        kernel.addHooks(&manager);
    }

    static hw::MachineConfig
    config()
    {
        hw::MachineConfig cfg;
        cfg.name = "telemetry";
        cfg.chips = 1;
        cfg.coresPerChip = 2;
        cfg.freqGhz = 1.0;
        cfg.truth.machineIdleW = 10.0;
        cfg.truth.chipMaintenanceW = 4.0;
        cfg.truth.coreBusyW = 6.0;
        cfg.truth.insW = 2.0;
        cfg.truth.diskActiveW = 3.0;
        return cfg;
    }

    static std::shared_ptr<core::LinearPowerModel>
    makeModel()
    {
        auto model = std::make_shared<core::LinearPowerModel>();
        model->setCoefficient(core::Metric::Core, 6.0);
        model->setCoefficient(core::Metric::Ins, 2.0);
        model->setCoefficient(core::Metric::ChipShare, 4.0);
        model->setCoefficient(core::Metric::Disk, 3.0);
        return model;
    }

    static std::shared_ptr<os::TaskLogic>
    computeThenIo()
    {
        return std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{ActivityVector{1, 0, 0, 0}, 5e6};
                },
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return os::IoOp{hw::DeviceKind::Disk, 5e5};
                }});
    }

    double
    metric(const std::string &name)
    {
        for (const auto &e : registry.entries()) {
            if (e.name != name)
                continue;
            switch (e.kind) {
              case InstrumentKind::Counter:
                return static_cast<double>(e.counter->value());
              case InstrumentKind::Gauge:
                return e.gauge->value();
              case InstrumentKind::Histogram:
                return static_cast<double>(e.histogram->count());
            }
        }
        ADD_FAILURE() << "metric not registered: " << name;
        return -1;
    }
};

TEST(SystemTelemetry, KernelCountersTrackASmallRun)
{
    TelemetryWorld w;
    RequestId a = w.requests.create("a", w.sim.now());
    RequestId b = w.requests.create("b", w.sim.now());
    w.kernel.spawn(TelemetryWorld::computeThenIo(), "t1", a, 0);
    w.kernel.spawn(TelemetryWorld::computeThenIo(), "t2", b, 1);
    w.sim.schedule(msec(1), [&] { w.kernel.setDutyLevel(0, 4); });
    w.sim.run(sec(1));
    w.requests.complete(a, w.sim.now());
    w.requests.complete(b, w.sim.now());
    w.registry.collect();

    EXPECT_GT(w.metric("kernel.context_switches"), 0.0);
    EXPECT_GT(w.metric("kernel.sampling_interrupts"), 0.0);
    EXPECT_EQ(w.metric("kernel.io_completions"), 2.0);
    EXPECT_EQ(w.metric("kernel.task_exits"), 2.0);
    EXPECT_GE(w.metric("kernel.actuations"), 1.0);
    EXPECT_EQ(w.metric("kernel.io_bytes"), 1e6);
    EXPECT_EQ(w.metric("requests.created"), 2.0);
    EXPECT_EQ(w.metric("requests.completed"), 2.0);
    EXPECT_EQ(w.metric("requests.active"), 0.0);
    EXPECT_EQ(w.metric("requests.response_ms"), 2.0);
    EXPECT_GT(w.metric("machine.energy_j"), 0.0);

    // The kernel.* counters equal the kernel's own counts at every
    // collect: a second collect adds nothing.
    double switches = w.metric("kernel.context_switches");
    EXPECT_EQ(switches, static_cast<double>(w.kernel.hookCalls(
                            os::Hook::ContextSwitch)));
    w.registry.collect();
    EXPECT_EQ(w.metric("kernel.context_switches"), switches);
    EXPECT_EQ(w.metric("kernel.io_bytes"), 1e6);
}

TEST(SystemTelemetry, WatchedManagerPublishesEnergyAndOverhead)
{
    TelemetryWorld w;
    w.telemetry.watch(w.manager);
    RequestId a = w.requests.create("a", w.sim.now());
    w.kernel.spawn(TelemetryWorld::computeThenIo(), "t", a, 0);
    w.sim.run(sec(1));
    w.requests.complete(a, w.sim.now());
    w.registry.collect();

    EXPECT_GT(w.metric("containers.accounted_energy_j"), 0.0);
    EXPECT_GT(w.metric("containers.maintenance_ops"), 0.0);
    // The modeled Section 3.5 overhead figure is deterministic:
    // maintenance ops times the configured per-op observer cycles.
    double ops = w.metric("containers.maintenance_ops");
    double cycles = w.metric("overhead.modeled_maintenance_cycles");
    EXPECT_DOUBLE_EQ(
        cycles,
        ops * w.manager.config().observerCost.nonhaltCycles);
    // Request completion recorded energy through the manager records.
    EXPECT_EQ(w.metric("requests.energy_j"), 1.0);
    EXPECT_EQ(w.metric("requests.mean_power_w"), 1.0);
}

TEST(SystemTelemetry, EnergyHistogramsDoNotDependOnListenerOrder)
{
    // Telemetry built before the manager: its completion listener
    // runs before the manager's has recorded the request.
    sim::Simulation sim;
    hw::Machine machine(sim, TelemetryWorld::config());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    Registry registry;
    SystemTelemetry telemetry(registry, kernel);
    core::ContainerManager manager(kernel, TelemetryWorld::makeModel(),
                                   {});
    kernel.addHooks(&manager);
    telemetry.watch(manager);

    const int n = 4;
    for (int i = 0; i < n; ++i) {
        RequestId id = requests.create("r", sim.now());
        kernel.spawn(TelemetryWorld::computeThenIo(), "t", id, i % 2);
        sim.run(sim.now() + msec(50));
        requests.complete(id, sim.now());
    }
    ASSERT_EQ(manager.records().size(), static_cast<std::size_t>(n));
    double record_j = 0;
    for (const core::RequestRecord &r : manager.records())
        record_j += r.totalEnergyJ().value();

    auto histogram = [&registry](const std::string &name) {
        for (const auto &e : registry.entries())
            if (e.name == name)
                return e.histogram;
        return static_cast<const Histogram *>(nullptr);
    };
    const Histogram *energy = histogram("requests.energy_j");
    const Histogram *power = histogram("requests.mean_power_w");
    ASSERT_NE(energy, nullptr);
    ASSERT_NE(power, nullptr);
    EXPECT_EQ(energy->count(), static_cast<std::uint64_t>(n));
    EXPECT_GT(record_j, 0.0);
    EXPECT_DOUBLE_EQ(energy->sum(), record_j);
    EXPECT_EQ(power->count(), static_cast<std::uint64_t>(n));
}

TEST(SystemTelemetry, WatchedManagerFeedsPerfettoPowerSamples)
{
    TelemetryWorld w;
    PerfettoExporter exporter(w.kernel);
    w.telemetry.attachPerfetto(exporter);
    w.telemetry.watch(w.manager);
    RequestId a = w.requests.create("a", w.sim.now());
    w.kernel.spawn(TelemetryWorld::computeThenIo(), "t", a, 0);
    Sampler sampler(w.sim, w.registry, {msec(10), 1u << 10});
    sampler.start();
    w.sim.run(sec(1));
    // Each snapshot sampled power/energy for at least the background
    // container.
    EXPECT_GE(exporter.counterCount(),
              2 * sampler.snapshots().size());
}

TEST(SystemTelemetry, WatchedAuditorPublishesSweepCounts)
{
    TelemetryWorld w;
    audit::InvariantAuditor auditor(w.kernel);
    auditor.watch(w.manager);
    w.telemetry.watch(auditor);
    RequestId a = w.requests.create("a", w.sim.now());
    w.kernel.spawn(TelemetryWorld::computeThenIo(), "t", a, 0);
    w.sim.run(sec(1));
    w.registry.collect();
    EXPECT_GT(w.metric("audit.sweeps"), 0.0);
    EXPECT_EQ(w.metric("audit.violations"), 0.0);
}

TEST(AttachLogMetrics, WarnAndErrorCallsReachTheRegistry)
{
    Registry reg;
    attachLogMetrics(reg);
    reg.collect();
    double warn_before = 0;
    double info_before = 0;
    for (const auto &e : reg.entries()) {
        if (e.name == "log.warn_total")
            warn_before = static_cast<double>(e.counter->value());
        if (e.name == "log.info_total")
            info_before = static_cast<double>(e.counter->value());
    }

    util::warn("telemetry regression probe ", 1);
    util::warn("telemetry regression probe ", 2);
    util::inform("telemetry info probe");
    reg.collect();

    double warn_after = -1;
    double info_after = -1;
    for (const auto &e : reg.entries()) {
        if (e.name == "log.warn_total")
            warn_after = static_cast<double>(e.counter->value());
        if (e.name == "log.info_total")
            info_after = static_cast<double>(e.counter->value());
    }
    EXPECT_EQ(warn_after, warn_before + 2.0);
    EXPECT_EQ(info_after, info_before + 1.0);
}

TEST(AttachLogMetrics, CountsBelowTheThresholdStillAccumulate)
{
    Registry reg;
    attachLogMetrics(reg);
    util::LogLevel saved = util::logThreshold();
    util::setLogThreshold(util::LogLevel::Error);
    util::warn("suppressed but counted");
    util::setLogThreshold(saved);
    reg.collect();
    for (const auto &e : reg.entries()) {
        if (e.name != "log.warn_total")
            continue;
        EXPECT_GE(e.counter->value(), 1u);
        return;
    }
    FAIL() << "log.warn_total not registered";
}

TEST(SystemTelemetry, WatchedAnomalyDetectorPublishesCounters)
{
    TelemetryWorld w;
    core::AnomalyDetectorConfig acfg;
    acfg.minBaselineSamples = 10;
    acfg.minStddevW = 0.25;
    core::PowerAnomalyDetector detector(w.manager, acfg);
    w.telemetry.watch(detector);

    // A uniform fleet builds the baseline without flagging anyone.
    for (int i = 0; i < 12; ++i) {
        RequestId id = w.requests.create("normal", w.sim.now());
        auto logic = std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [](os::Kernel &, Task &, const OpResult &) -> Op {
                    return ComputeOp{ActivityVector{1, 0, 0, 0},
                                     3e6};
                }});
        w.kernel.spawn(logic, "normal", id, 0);
        w.sim.run(w.sim.now() + msec(100));
        w.requests.complete(id, w.sim.now());
    }
    w.registry.collect();
    EXPECT_GE(w.metric("anomaly.scans_total"), 1.0);
    EXPECT_EQ(w.metric("anomaly.flagged_total"), 0.0);
    EXPECT_EQ(w.metric("anomaly.baseline_samples"), 12.0);
    EXPECT_GT(w.metric("anomaly.fleet_mean_w"), 0.0);

    // A power virus (cache+memory heavy) crosses the threshold and
    // lands in the counters on the next snapshot.
    RequestId virus = w.requests.create("virus", w.sim.now());
    auto hot = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{
                    ActivityVector{2.0, 0.0, 0.06, 0.014}, 3e6};
            }});
    w.kernel.spawn(hot, "virus", virus, 0);
    w.sim.run(w.sim.now() + msec(100));
    w.requests.complete(virus, w.sim.now());
    w.registry.collect();
    EXPECT_EQ(w.metric("anomaly.flagged_total"), 1.0);
    EXPECT_EQ(w.metric("anomaly.flagged"), 1.0);
    // Re-collecting does not double count: scan() reports once.
    w.registry.collect();
    EXPECT_EQ(w.metric("anomaly.flagged_total"), 1.0);
}

} // namespace
} // namespace pcon::telemetry
