/**
 * @file
 * The runtime invariant auditor: a clean simulation passes every
 * check, while deliberately injected physics violations — corrupted
 * container energy, backwards counters, negative model coefficients,
 * a mis-calibrated model breaking conservation — each raise a
 * PanicError naming the violated invariant.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::audit {
namespace {

using hw::ActivityVector;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::ScriptedLogic;
using os::SleepOp;
using os::Task;
using util::PanicError;

hw::MachineConfig
auditConfig()
{
    hw::MachineConfig cfg;
    cfg.name = "audit";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 2.0;
    cfg.truth.machineIdleW = 20.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 3.0;
    return cfg;
}

std::shared_ptr<core::LinearPowerModel>
exactModel(const hw::MachineConfig &cfg)
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(cfg.truth.machineIdleW);
    model->setCoefficient(core::Metric::Core, cfg.truth.coreBusyW);
    model->setCoefficient(core::Metric::Ins, cfg.truth.insW);
    model->setCoefficient(core::Metric::ChipShare,
                          cfg.truth.chipMaintenanceW);
    model->setCoefficient(core::Metric::Disk, cfg.truth.diskActiveW);
    model->setCoefficient(core::Metric::Net, cfg.truth.netActiveW);
    return model;
}

/** Sim + machine + kernel + manager running a small busy workload. */
struct Rig
{
    sim::Simulation sim;
    hw::MachineConfig cfg = auditConfig();
    hw::Machine machine{sim, cfg};
    os::RequestContextManager requests;
    os::Kernel kernel{machine, requests};
    std::shared_ptr<core::LinearPowerModel> model = exactModel(cfg);
    core::ContainerManager manager{kernel, model, {}};
    std::vector<os::RequestId> reqs;

    explicit Rig(int tasks = 3)
    {
        kernel.addHooks(&manager);
        auto rng = std::make_shared<sim::Rng>(42);
        for (int i = 0; i < tasks; ++i) {
            os::RequestId req =
                requests.create("r" + std::to_string(i), sim.now());
            reqs.push_back(req);
            auto logic = std::make_shared<ScriptedLogic>(
                std::vector<ScriptedLogic::Step>{
                    [rng](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                        return ComputeOp{
                            ActivityVector{1.0, 0, 0, 0},
                            rng->uniform(0.5e6, 2e6)};
                    },
                    [rng](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                        return SleepOp{sim::usec(
                            rng->uniformInt(50, 500))};
                    }},
                true);
            kernel.spawn(logic, "t" + std::to_string(i), req);
        }
    }
};

/** what() of the PanicError thrown by `fn`; fails the test if none. */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a PanicError";
    return {};
}

TEST(InvariantAuditorTest, CleanSimulationPassesAllChecks)
{
    Rig rig;
    InvariantAuditorConfig cfg;
    cfg.everyEvents = 256;
    InvariantAuditor auditor(rig.kernel, cfg);
    auditor.watch(rig.manager);
    EXPECT_NO_THROW(rig.sim.run(sim::msec(500)));
    EXPECT_GT(auditor.auditsRun(), 5u);
    EXPECT_NO_THROW(auditor.checkNow());
}

TEST(InvariantAuditorTest, InjectedConservationBugIsCaught)
{
    Rig rig;
    InvariantAuditor auditor(rig.kernel);
    auditor.watch(rig.manager);
    rig.sim.run(sim::msec(100));

    // Corrupt the books: energy appears in a container that was
    // never drawn from the chip.
    rig.manager.background().chargeCpuWindow(
        util::Joules(50.0), 0.0, hw::CounterSnapshot{},
        rig.manager.background().lastPowerW());

    std::string what = panicMessage([&] { auditor.checkNow(); });
    EXPECT_NE(what.find("container-energy-conservation"),
              std::string::npos)
        << what;
}

TEST(InvariantAuditorTest, NonMonotoneCounterIsCaught)
{
    Rig rig;
    InvariantAuditor auditor(rig.kernel);
    rig.sim.run(sim::msec(100));
    EXPECT_NO_THROW(auditor.checkNow());

    // Rewind a hardware counter: impossible on real silicon, so the
    // auditor must flag the model as corrupt.
    rig.machine.injectCounterEvents(
        0, hw::CounterSnapshot{0, -1e9, 0, 0, 0, 0});

    std::string what = panicMessage([&] { auditor.checkNow(); });
    EXPECT_NE(what.find("counter-monotonicity"), std::string::npos)
        << what;
}

TEST(InvariantAuditorTest, CounterBoundLeavesOutInjectedObserverCycles)
{
    // Ledger maintenance every 10 us on a busy core: each sample
    // injects the observer cost (2,948 non-halt cycles, ~15% of the
    // elapsed cycles at 2 GHz). That is not a core outrunning its
    // clock, so 'counter-nonhalt-bound' must not fire.
    Rig rig(0);
    os::RequestId req = rig.requests.create("busy", rig.sim.now());
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1.0, 0, 0, 0}, 1e15};
            }},
        true);
    rig.kernel.spawn(logic, "busy", req, 0);
    InvariantAuditor auditor(rig.kernel);
    auditor.watch(rig.manager);
    sim::SimTime t = rig.sim.now();
    for (int i = 0; i < 10000; ++i) {
        t += sim::usec(10);
        rig.sim.run(t);
        rig.manager.sampleNow(0);
    }
    hw::CounterSnapshot c = rig.machine.readCounters(0);
    EXPECT_GT(c.nonhaltCycles, c.elapsedCycles * 1.05 + 1e7);
    EXPECT_NO_THROW(auditor.checkNow());
}

TEST(InvariantAuditorTest, NegativeModelCoefficientIsCaught)
{
    Rig rig;
    InvariantAuditor auditor(rig.kernel);
    auditor.watch(rig.manager);
    rig.sim.run(sim::msec(50));

    rig.model->setCoefficient(core::Metric::Ins, -0.5);

    std::string what = panicMessage([&] { auditor.checkNow(); });
    EXPECT_NE(what.find("model-coefficient-nonnegative"),
              std::string::npos)
        << what;
}

TEST(InvariantAuditorTest, MiscalibratedModelBreaksConservation)
{
    Rig rig;
    // Halve every coefficient: attribution now physically cannot
    // cover the measured active energy.
    for (std::size_t i = 0; i < core::NumMetrics; ++i) {
        core::Metric m = static_cast<core::Metric>(i);
        rig.model->setCoefficient(m,
                                  rig.model->coefficient(m) * 0.5);
    }
    InvariantAuditorConfig cfg;
    cfg.conservationRelTol = 0.10;
    cfg.conservationSlackJ = 0.05;
    InvariantAuditor auditor(rig.kernel, cfg);
    auditor.watch(rig.manager);

    std::string what =
        panicMessage([&] { rig.sim.run(sim::sec(2)); });
    EXPECT_NE(what.find("chip-energy-conservation"),
              std::string::npos)
        << what;
}

TEST(InvariantAuditorTest, DutyAndPStateBoundsAuditedClean)
{
    Rig rig;
    InvariantAuditor auditor(rig.kernel);
    rig.kernel.setDutyLevel(0, 1);
    rig.kernel.setPState(1, 2);
    rig.sim.run(sim::msec(50));
    EXPECT_NO_THROW(auditor.checkNow());
}

TEST(InvariantAuditorTest, DeregistersOnDestruction)
{
    Rig rig;
    {
        InvariantAuditor auditor(rig.kernel);
        auditor.watch(rig.manager);
        rig.sim.run(sim::msec(20));
    }
    // Destroyed auditor must not be invoked by later runs.
    EXPECT_NO_THROW(rig.sim.run(sim::msec(40)));
}

TEST(InvariantAuditorTest, ClearRecordsDoesNotFalsifyAttribution)
{
    Rig rig;
    InvariantAuditor auditor(rig.kernel);
    auditor.watch(rig.manager);
    rig.sim.run(sim::msec(100));
    // Complete one request so a record exists, then clear records
    // mid-watch (the experiment-phase reset path).
    rig.requests.complete(rig.reqs.front(), rig.sim.now());
    rig.sim.run(sim::msec(150));
    ASSERT_FALSE(rig.manager.records().empty());
    util::Joules completed{0};
    for (const core::RequestRecord &r : rig.manager.records())
        completed += r.totalEnergyJ();
    EXPECT_EQ(rig.manager.completedEnergyJ().value(), completed.value());
    EXPECT_NO_THROW(auditor.checkNow());
    rig.manager.clearRecords();
    // The running total the attribution check reads survives the
    // reset.
    EXPECT_EQ(rig.manager.completedEnergyJ().value(), completed.value());
    EXPECT_NO_THROW(auditor.checkNow());
    rig.sim.run(sim::msec(200));
    EXPECT_NO_THROW(auditor.checkNow());
}

} // namespace
} // namespace pcon::audit
