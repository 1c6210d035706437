#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/container_manager.h"
#include "hw/config.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::hw {
namespace {

using sim::msec;
using sim::sec;
using sim::Simulation;

MachineConfig
tinyConfig()
{
    MachineConfig cfg;
    cfg.name = "tiny";
    cfg.chips = 2;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0; // 1 cycle per ns: easy arithmetic
    cfg.dutyDenom = 8;
    cfg.truth.machineIdleW = 50.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 5.0;
    cfg.truth.coreBusyW = 10.0;
    cfg.truth.insW = 2.0;
    cfg.truth.flopW = 1.0;
    cfg.truth.llcW = 100.0;
    cfg.truth.memW = 400.0;
    cfg.truth.nlCacheMemW = 0.0;
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 4.0;
    return cfg;
}

TEST(Machine, RejectsBadConfigs)
{
    Simulation sim;
    MachineConfig cfg = tinyConfig();
    cfg.chips = 0;
    EXPECT_THROW(Machine(sim, cfg), util::FatalError);
    cfg = tinyConfig();
    cfg.freqGhz = 0.0;
    EXPECT_THROW(Machine(sim, cfg), util::FatalError);
    cfg = tinyConfig();
    cfg.dutyDenom = 1;
    EXPECT_THROW(Machine(sim, cfg), util::FatalError);
}

TEST(Machine, IdleMachineDrawsIdlePowerOnly)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    EXPECT_DOUBLE_EQ(m.truePowerW().value(), 50.0);
    EXPECT_DOUBLE_EQ(m.trueActivePowerW().value(), 0.0);
    EXPECT_DOUBLE_EQ(m.truePackagePowerW(0).value(), 2.0);
}

TEST(Machine, BusyCorePowerIncludesMaintenanceOncePerChip)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    ActivityVector spin{1.0, 0.0, 0.0, 0.0};
    // One busy core on chip 0: maintenance + core power on that chip.
    m.setRunning(0, spin);
    double one = m.trueActivePowerW().value();
    EXPECT_DOUBLE_EQ(one, 5.0 + (10.0 + 2.0));
    // Second core on the same chip: no second maintenance charge.
    m.setRunning(1, spin);
    double two_same = m.trueActivePowerW().value();
    EXPECT_DOUBLE_EQ(two_same - one, 12.0);
    // First core on the other chip: maintenance charged again.
    m.setRunning(2, spin);
    EXPECT_DOUBLE_EQ(m.trueActivePowerW().value() - two_same, 5.0 + 12.0);
}

TEST(Machine, CountersFollowActivityAndTime)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    ActivityVector act{2.0, 0.5, 0.05, 0.01};
    m.setRunning(0, act);
    sim.run(msec(1)); // 1e6 ns at 1 cycle/ns
    CounterSnapshot c = m.readCounters(0);
    EXPECT_DOUBLE_EQ(c.elapsedCycles, 1e6);
    EXPECT_DOUBLE_EQ(c.nonhaltCycles, 1e6);
    EXPECT_DOUBLE_EQ(c.instructions, 2e6);
    EXPECT_DOUBLE_EQ(c.flops, 0.5e6);
    EXPECT_DOUBLE_EQ(c.llcRefs, 0.05e6);
    EXPECT_DOUBLE_EQ(c.memTxns, 0.01e6);
    // Idle sibling: elapsed advances, non-halt does not.
    CounterSnapshot s = m.readCounters(1);
    EXPECT_DOUBLE_EQ(s.elapsedCycles, 1e6);
    EXPECT_DOUBLE_EQ(s.nonhaltCycles, 0.0);
}

TEST(Machine, DutyCycleScalesCountersAndPower)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    ActivityVector act{1.0, 0.0, 0.0, 0.0};
    m.setRunning(0, act);
    m.setDutyLevel(0, 4); // 4/8 = 50%
    EXPECT_DOUBLE_EQ(m.dutyFraction(0), 0.5);
    EXPECT_DOUBLE_EQ(m.workRateHz(0), 0.5e9);
    // Power: maintenance unscaled, core part halved.
    EXPECT_DOUBLE_EQ(m.trueActivePowerW().value(), 5.0 + 12.0 * 0.5);
    sim.run(msec(2));
    CounterSnapshot c = m.readCounters(0);
    EXPECT_DOUBLE_EQ(c.elapsedCycles, 2e6);
    EXPECT_DOUBLE_EQ(c.nonhaltCycles, 1e6);
    EXPECT_THROW(m.setDutyLevel(0, 0), util::FatalError);
    EXPECT_THROW(m.setDutyLevel(0, 9), util::FatalError);
}

TEST(Machine, EnergyIntegratesPiecewiseConstantPower)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    // 1 second idle: 50 J machine, 2 J per package.
    sim.run(sec(1));
    EXPECT_NEAR(m.machineEnergyJ().value(), 50.0, 1e-9);
    EXPECT_NEAR(m.packageEnergyJ(0).value(), 2.0, 1e-9);
    // 1 second with one spinning core on chip 0.
    ActivityVector spin{1.0, 0.0, 0.0, 0.0};
    m.setRunning(0, spin);
    sim.run(sec(2));
    EXPECT_NEAR(m.machineEnergyJ().value(), 50.0 + 50.0 + 17.0, 1e-9);
    EXPECT_NEAR(m.packageEnergyJ(0).value(), 2.0 + 2.0 + 17.0, 1e-9);
    EXPECT_NEAR(m.packageEnergyJ(1).value(), 4.0, 1e-9);
}

TEST(Machine, MidIntervalStateChangeSplitsIntegration)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    ActivityVector spin{1.0, 0.0, 0.0, 0.0};
    sim.schedule(msec(500), [&] { m.setRunning(0, spin); });
    sim.run(sec(1));
    // 0.5 s idle + 0.5 s at 50+17 W.
    EXPECT_NEAR(m.machineEnergyJ().value(), 25.0 + 33.5, 1e-9);
}

TEST(Machine, DeviceBusyRefcountsAndEnergy)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    EXPECT_FALSE(m.deviceBusy(DeviceKind::Disk));
    m.setDeviceBusy(DeviceKind::Disk, true);
    m.setDeviceBusy(DeviceKind::Disk, true);
    m.setDeviceBusy(DeviceKind::Disk, false);
    EXPECT_TRUE(m.deviceBusy(DeviceKind::Disk));
    EXPECT_DOUBLE_EQ(m.trueActivePowerW().value(), 3.0);
    sim.run(sec(1));
    m.setDeviceBusy(DeviceKind::Disk, false);
    EXPECT_FALSE(m.deviceBusy(DeviceKind::Disk));
    EXPECT_NEAR(m.deviceEnergyJ(DeviceKind::Disk).value(), 3.0, 1e-9);
    EXPECT_NEAR(m.deviceEnergyJ(DeviceKind::Net).value(), 0.0, 1e-9);
    // Underflow panics.
    EXPECT_THROW(m.setDeviceBusy(DeviceKind::Disk, false),
                 util::PanicError);
}

TEST(Machine, NonlinearInteractionOnlyWithBothRates)
{
    Simulation sim;
    MachineConfig cfg = tinyConfig();
    cfg.truth.nlCacheMemW = 7.0;
    Machine m(sim, cfg);
    // Cache-only activity: no interaction power.
    m.setRunning(0, ActivityVector{1.0, 0.0, 0.05, 0.0});
    double cache_only = m.trueActivePowerW().value();
    m.setIdle(0);
    // Memory-only activity: no interaction power.
    m.setRunning(0, ActivityVector{1.0, 0.0, 0.0, 0.01});
    double mem_only = m.trueActivePowerW().value();
    m.setIdle(0);
    // Both at the normalization rates: +7 W.
    m.setRunning(0, ActivityVector{1.0, 0.0, 0.05, 0.01});
    double both = m.trueActivePowerW().value();
    double linear_sum = cache_only + mem_only -
        (5.0 + (10.0 + 2.0)); // remove double-counted base
    EXPECT_NEAR(both - linear_sum, 7.0, 1e-9);
}

TEST(Machine, InjectedEventsAppearInCounters)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    CounterSnapshot extra;
    extra.nonhaltCycles = 2948;
    extra.instructions = 1656;
    extra.flops = 16;
    extra.llcRefs = 3;
    m.injectCounterEvents(0, extra);
    CounterSnapshot c = m.readCounters(0);
    EXPECT_DOUBLE_EQ(c.instructions, 1656);
    EXPECT_DOUBLE_EQ(c.nonhaltCycles, 2948);
    EXPECT_DOUBLE_EQ(c.flops, 16);
    EXPECT_DOUBLE_EQ(c.llcRefs, 3);
}

TEST(Machine, CoreIndexBoundsArePanics)
{
    Simulation sim;
    Machine m(sim, tinyConfig());
    EXPECT_THROW(m.readCounters(4), util::PanicError);
    EXPECT_THROW(m.setIdle(-1), util::PanicError);
    EXPECT_THROW(m.truePackagePowerW(2), util::PanicError);
}

TEST(Machine, PresetConfigsAreConsistent)
{
    for (const MachineConfig &cfg :
         {woodcrestConfig(), westmereConfig(), sandyBridgeConfig()}) {
        Simulation sim;
        Machine m(sim, cfg);
        EXPECT_GT(cfg.truth.machineIdleW, 0.0) << cfg.name;
        EXPECT_GT(cfg.truth.chipMaintenanceW, 0.0) << cfg.name;
        EXPECT_EQ(m.totalCores(), cfg.chips * cfg.coresPerChip);
        // Idle power proportion sanity: package idle is small.
        EXPECT_LT(cfg.truth.packageIdleW, cfg.truth.machineIdleW);
    }
    EXPECT_EQ(woodcrestConfig().totalCores(), 4);
    EXPECT_EQ(westmereConfig().totalCores(), 12);
    EXPECT_EQ(sandyBridgeConfig().totalCores(), 4);
    EXPECT_TRUE(sandyBridgeConfig().hasOnChipMeter);
    EXPECT_FALSE(woodcrestConfig().hasOnChipMeter);
}

TEST(Machine, ChipOfMapsCoresToPackages)
{
    MachineConfig cfg = woodcrestConfig();
    EXPECT_EQ(cfg.chipOf(0), 0);
    EXPECT_EQ(cfg.chipOf(1), 0);
    EXPECT_EQ(cfg.chipOf(2), 1);
    EXPECT_EQ(cfg.chipOf(3), 1);
}

TEST(Machine, RateBoundLeavesOutInjectedObserverCycles)
{
    // The maintenance loop of the GoldenShapes ledger scenario
    // (tests/integration/golden_shapes_test.cc): a ledger sample on
    // a busy core every 10 simulated us. Each one injects the
    // observer cost (2,948 non-halt cycles, ~9.5% of the
    // elapsed cycles at 3.1 GHz), which outruns the rate bound's 5%
    // slack. The bound, audited at every fold of the core (each
    // injection is one), must leave those cycles out.
    Simulation sim;
    Machine machine(sim, sandyBridgeConfig());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(26.1);
    model->setCoefficient(core::Metric::Core, 8.0);
    core::ContainerManager manager(kernel, model, {});
    kernel.addHooks(&manager);
    os::RequestId req = requests.create("ledger", sim.now());
    auto logic = std::make_shared<os::ScriptedLogic>(
        std::vector<os::ScriptedLogic::Step>{
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::ComputeOp{
                    ActivityVector{1.5, 0.1, 0.02, 0.004}, 1e15};
            }},
        true);
    kernel.spawn(logic, "subject", req, 0);
    sim.run(msec(1));
    sim::SimTime t = sim.now();
    for (int i = 0; i < 20000; ++i) {
        t += sim::usec(10);
        ASSERT_NO_THROW(sim.run(t)) << "sample " << i;
        ASSERT_NO_THROW(manager.sampleNow(0)) << "sample " << i;
    }
    // The raw counters do exceed the bound: the loop reached the case.
    CounterSnapshot c = machine.readCounters(0);
    EXPECT_GT(c.nonhaltCycles, c.elapsedCycles * 1.05 + 1e7);
    EXPECT_LE(c.nonhaltCycles - machine.injectedNonhaltCycles(0),
              c.elapsedCycles);
}

} // namespace
} // namespace pcon::hw
