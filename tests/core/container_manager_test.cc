#include <memory>

#include <gtest/gtest.h>

#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::core {
namespace {

using hw::ActivityVector;
using hw::MachineConfig;
using os::ComputeOp;
using os::ExitOp;
using os::IoOp;
using os::NoRequest;
using os::Op;
using os::OpResult;
using os::RequestId;
using os::ScriptedLogic;
using os::Task;
using os::TaskId;
using sim::msec;
using sim::sec;
using sim::Simulation;

MachineConfig
linearConfig()
{
    // Purely linear ground truth: an exactly matching model must
    // account energy exactly (up to Equation 3's approximation).
    MachineConfig cfg;
    cfg.name = "linear";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 30.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    cfg.truth.flopW = 1.0;
    cfg.truth.llcW = 50.0;
    cfg.truth.memW = 200.0;
    cfg.truth.nlCacheMemW = 0.0;
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 5.0;
    return cfg;
}

/** The model whose coefficients equal the linear ground truth. */
std::shared_ptr<LinearPowerModel>
exactModel(const MachineConfig &cfg)
{
    auto model =
        std::make_shared<LinearPowerModel>(ModelKind::WithChipShare);
    model->setIdleW(cfg.truth.machineIdleW);
    model->setCoefficient(Metric::Core, cfg.truth.coreBusyW);
    model->setCoefficient(Metric::Ins, cfg.truth.insW);
    model->setCoefficient(Metric::Float, cfg.truth.flopW);
    model->setCoefficient(Metric::Cache, cfg.truth.llcW);
    model->setCoefficient(Metric::Mem, cfg.truth.memW);
    model->setCoefficient(Metric::ChipShare,
                          cfg.truth.chipMaintenanceW);
    model->setCoefficient(Metric::Disk, cfg.truth.diskActiveW);
    model->setCoefficient(Metric::Net, cfg.truth.netActiveW);
    return model;
}

struct World
{
    Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<LinearPowerModel> model;
    ContainerManager manager;

    explicit World(const ContainerManagerConfig &cfg = {},
                   const MachineConfig &mc = linearConfig(),
                   const os::KernelConfig &kcfg = {})
        : machine(sim, mc), kernel(machine, requests, kcfg),
          model(exactModel(mc)), manager(kernel, model, cfg)
    {
        kernel.addHooks(&manager);
    }
};

std::shared_ptr<os::TaskLogic>
computeOnce(double cycles, const ActivityVector &act)
{
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{act, cycles};
            }});
}

TEST(ContainerManager, AttributesEnergyOfSingleRequestExactly)
{
    World w;
    RequestId req = w.requests.create("job", w.sim.now());
    // 10 ms of spin on one core: truth active power is maintenance 4
    // + core (6 + 2*1 ipc) = 12 W -> 0.12 J.
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    w.kernel.spawn(computeOnce(10e6, act), "t", req);
    w.sim.run(msec(20));
    w.requests.complete(req, w.sim.now());

    ASSERT_EQ(w.manager.records().size(), 1u);
    const RequestRecord &r = w.manager.records()[0];
    EXPECT_EQ(r.type, "job");
    EXPECT_NEAR(r.cpuEnergyJ.value(), 0.12, 0.12 * 0.02);
    EXPECT_NEAR(r.cpuTimeNs, 10e6, 1e4);
    EXPECT_NEAR(r.meanPowerW.value(), 12.0, 0.3);
    // Everything accounted is this request (no other activity).
    EXPECT_NEAR(w.manager.accountedEnergyJ().value(), r.cpuEnergyJ.value(), 1e-9);
}

TEST(ContainerManager, ChipShareSplitsBetweenConcurrentRequests)
{
    World w;
    RequestId ra = w.requests.create("a", w.sim.now());
    RequestId rb = w.requests.create("b", w.sim.now());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    // Both cores busy for 10 ms: truth = 4 + 2*(8) = 20 W active.
    w.kernel.spawn(computeOnce(10e6, act), "a", ra, 0);
    w.kernel.spawn(computeOnce(10e6, act), "b", rb, 1);
    w.sim.run(msec(20));
    w.requests.complete(ra, w.sim.now());
    w.requests.complete(rb, w.sim.now());

    ASSERT_EQ(w.manager.records().size(), 2u);
    double total = w.manager.records()[0].cpuEnergyJ.value() +
        w.manager.records()[1].cpuEnergyJ.value();
    // Ground truth active energy = 20 W * 0.01 s = 0.2 J. The
    // Equation 3 estimate is an approximation (siblings' samples lag
    // one window), so allow a few percent.
    EXPECT_NEAR(total, 0.2, 0.2 * 0.05);
    // Fair split: each got the same work, so each gets ~half.
    EXPECT_NEAR(w.manager.records()[0].cpuEnergyJ.value(), 0.1, 0.01);
}

TEST(ContainerManager, SoleRunnerGetsWholeMaintenancePower)
{
    World w;
    RequestId req = w.requests.create("solo", w.sim.now());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    w.kernel.spawn(computeOnce(5e6, act), "t", req, 0);
    w.sim.run(msec(10));
    w.requests.complete(req, w.sim.now());
    const RequestRecord &r = w.manager.records()[0];
    // Full 12 W (incl. all 4 W maintenance) attributed to the only
    // running request: Mchipshare = 1.
    EXPECT_NEAR(r.meanPowerW.value(), 12.0, 0.3);
}

TEST(ContainerManager, UnboundTasksChargeBackground)
{
    World w;
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    w.kernel.spawn(computeOnce(5e6, act), "daemon", NoRequest);
    w.sim.run(msec(10));
    EXPECT_NEAR(w.manager.background().cpuEnergyJ().value(), 0.06,
                0.06 * 0.02);
    EXPECT_EQ(w.manager.records().size(), 0u);
}

TEST(ContainerManager, IoEnergyAttributedViaInterruptContext)
{
    World w;
    RequestId req = w.requests.create("io", w.sim.now());
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return IoOp{hw::DeviceKind::Disk, 10e6};
            }});
    w.kernel.spawn(logic, "t", req);
    w.sim.run(sec(1));
    PowerContainer *c = w.manager.container(req);
    ASSERT_NE(c, nullptr);
    // Service time: 0.5 ms latency + 10e6/100e6 s = 100.5 ms at the
    // modeled 3 W disk coefficient.
    EXPECT_NEAR(c->ioEnergyJ().value(), 3.0 * 0.1005, 1e-6);
    EXPECT_NEAR(c->cpuEnergyJ().value(), 0.0, 1e-9);
}

TEST(ContainerManager, ObserverEffectCompensationKeepsAccountingClean)
{
    // With injection on and compensation on, attribution matches the
    // no-observer baseline; with compensation off it over-counts.
    auto run = [](bool inject, bool compensate) {
        ContainerManagerConfig cfg;
        cfg.injectObserverEffect = inject;
        cfg.compensateObserverEffect = compensate;
        World w(cfg);
        RequestId req = w.requests.create("job", w.sim.now());
        ActivityVector act{1.0, 0.0, 0.0, 0.0};
        w.kernel.spawn(computeOnce(50e6, act), "t", req);
        w.sim.run(msec(100));
        w.requests.complete(req, w.sim.now());
        return w.manager.records()[0].events.instructions;
    };
    double clean = run(false, false);
    double compensated = run(true, true);
    double raw = run(true, false);
    EXPECT_NEAR(compensated, clean, clean * 1e-6);
    EXPECT_GT(raw, clean + 1000.0); // injected instructions leak in
}

TEST(ContainerManager, UtilizationAuditAdmitsUncompensatedObserverCycles)
{
    // Ablation 3's setup: injection on, compensation off and its
    // 80,000-cycle observer cost. A fully busy core's window then
    // holds its elapsed cycles plus the previous sample's injected
    // ones; 0.4 ms windows at 1 GHz read a utilization of 1.2.
    ContainerManagerConfig cfg;
    cfg.injectObserverEffect = true;
    cfg.compensateObserverEffect = false;
    cfg.observerCost = hw::CounterSnapshot{0, 80000, 60000, 500, 100, 0};
    os::KernelConfig kcfg;
    kcfg.samplingPeriodCycles = 4e5;
    World w(cfg, linearConfig(), kcfg);
    RequestId req = w.requests.create("job", w.sim.now());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    w.kernel.spawn(computeOnce(50e6, act), "t", req, 0);
    EXPECT_NO_THROW(w.sim.run(msec(100)));
    w.requests.complete(req, w.sim.now());

    // Every window but the first carries 80,000 injected cycles.
    ASSERT_EQ(w.manager.records().size(), 1u);
    EXPECT_GT(w.manager.records()[0].events.nonhaltCycles,
              50e6 + 100 * 80000.0);
}

TEST(ContainerManager, RebindMidRunSplitsAttribution)
{
    World w;
    RequestId ra = w.requests.create("a", w.sim.now());
    RequestId rb = w.requests.create("b", w.sim.now());
    // One task computes 4 ms bound to A, then is rebound to B by an
    // explicit bindContext (as an arriving tagged message would).
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    TaskId id = w.kernel.spawn(computeOnce(8e6, act), "t", ra, 0);
    w.sim.schedule(msec(4), [&, id] { w.kernel.bindContext(id, rb); });
    w.sim.run(msec(20));
    w.requests.complete(ra, w.sim.now());
    w.requests.complete(rb, w.sim.now());
    ASSERT_EQ(w.manager.records().size(), 2u);
    const RequestRecord &a = w.manager.records()[0];
    const RequestRecord &b = w.manager.records()[1];
    EXPECT_NEAR(a.cpuTimeNs, 4e6, 1e4);
    EXPECT_NEAR(b.cpuTimeNs, 4e6, 1e4);
    EXPECT_NEAR(a.cpuEnergyJ.value(), b.cpuEnergyJ.value(), a.cpuEnergyJ.value() * 0.02);
}

TEST(ContainerManager, CompletedContainerReleasedButRecordKept)
{
    World w;
    RequestId req = w.requests.create("short", w.sim.now());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    w.kernel.spawn(computeOnce(1e6, act), "t", req);
    w.sim.run(msec(5));
    EXPECT_NE(w.manager.container(req), nullptr);
    w.requests.complete(req, w.sim.now());
    EXPECT_EQ(w.manager.container(req), nullptr);
    EXPECT_EQ(w.manager.records().size(), 1u);
    EXPECT_EQ(w.manager.live().size(), 0u);
}

TEST(ContainerManager, LateActivityAfterCompletionGoesToBackground)
{
    World w;
    RequestId req = w.requests.create("gone", w.sim.now());
    w.requests.complete(req, w.sim.now());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    // A task still bound to the stale id: charges background.
    w.kernel.spawn(computeOnce(2e6, act), "straggler", req);
    w.sim.run(msec(5));
    EXPECT_GT(w.manager.background().cpuEnergyJ().value(), 0.0);
}

TEST(ContainerManager, MaintenanceOpsCountGrowsWithSampling)
{
    World w;
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    RequestId req = w.requests.create("job", w.sim.now());
    w.kernel.spawn(computeOnce(10e6, act), "t", req);
    std::uint64_t before = w.manager.maintenanceOps();
    w.sim.run(msec(20));
    // 10 ms of work with 1 ms sampling: ~10 periodic samples plus
    // the context switches.
    EXPECT_GE(w.manager.maintenanceOps() - before, 10u);
}

TEST(ContainerManager, ResponseMessagesCarryContainerStatistics)
{
    // Section 3.4: cross-machine messages are tagged with the sending
    // side's cumulative request statistics; the dispatcher reads them
    // off the response.
    World w;
    auto [client_end, server_end] = w.kernel.socketPair();
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [s = server_end](os::Kernel &, Task &, const OpResult &)
                -> Op { return os::RecvOp{s}; },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1.0, 0, 0, 0}, 5e6};
            },
            [s = server_end](os::Kernel &, Task &, const OpResult &)
                -> Op { return os::SendOp{s, 64}; }},
        true);
    w.kernel.spawn(server, "server");

    os::RequestStatsTag got;
    client_end->setSegmentCallback([&](const os::Segment &seg) {
        got = seg.stats;
    });
    RequestId req = w.requests.create("tagged", w.sim.now());
    client_end->send(32, req);
    w.sim.run(msec(50));

    ASSERT_TRUE(got.present);
    // 5e6 cycles at 1 GHz: 5 ms of CPU at ~12 W active -> ~0.06 J.
    EXPECT_NEAR(got.cpuTimeNs, 5e6, 1e4);
    EXPECT_NEAR(got.energyJ.value(), 0.06, 0.06 * 0.05);
    EXPECT_NEAR(got.lastPowerW.value(), 12.0, 0.5);
    // The tag matches the container's own books.
    PowerContainer *c = w.manager.container(req);
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(got.energyJ.value(), c->totalEnergyJ().value());
}

TEST(ContainerManager, StatsTagAbsentForUnknownContexts)
{
    World w;
    auto [client_end, server_end] = w.kernel.socketPair();
    (void)server_end;
    os::RequestStatsTag got;
    got.present = true;
    client_end->peer()->setSegmentCallback(
        [&](const os::Segment &seg) { got = seg.stats; });
    // Send with a context id that no container tracks.
    client_end->send(8, 424242);
    w.sim.run(msec(1));
    EXPECT_FALSE(got.present);
}

TEST(ContainerManager, MemoryIntensiveRequestDrawsMorePower)
{
    World w;
    RequestId spin_req = w.requests.create("spin", w.sim.now());
    RequestId mem_req = w.requests.create("mem", w.sim.now());
    w.kernel.spawn(
        computeOnce(5e6, ActivityVector{1.0, 0.0, 0.0, 0.0}), "spin",
        spin_req, 0);
    w.sim.run(msec(10));
    w.kernel.spawn(
        computeOnce(5e6, ActivityVector{1.0, 0.0, 0.04, 0.01}), "mem",
        mem_req, 0);
    w.sim.run(msec(30));
    w.requests.complete(spin_req, w.sim.now());
    w.requests.complete(mem_req, w.sim.now());
    const RequestRecord &spin = w.manager.records()[0];
    const RequestRecord &mem = w.manager.records()[1];
    // mem adds 0.04*50 + 0.01*200 = 4 W over spin's 12 W.
    EXPECT_NEAR(mem.meanPowerW.value() - spin.meanPowerW.value(), 4.0, 0.3);
}

} // namespace
} // namespace pcon::core
