#include <gtest/gtest.h>

#include <cmath>

#include "hw/machine.h"
#include "hw/power_meter.h"
#include "sim/simulation.h"
#include "util/logging.h"
#include "util/stats.h"

namespace pcon::hw {
namespace {

using sim::msec;
using sim::sec;
using sim::Simulation;
using sim::SimTime;

MachineConfig
meterConfig()
{
    MachineConfig cfg;
    cfg.name = "metered";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 20.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    return cfg;
}

TEST(PowerMeter, DeliversDelayedSamplesAtPeriod)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {msec(10), msec(3)});
    std::vector<PowerMeter::Sample> got;
    meter.subscribe([&](const PowerMeter::Sample &s) {
        got.push_back(s);
    });
    meter.start();
    sim.run(msec(35));
    // Intervals end at 10, 20, 30 ms; deliveries at 13, 23, 33 ms.
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].intervalEnd, msec(10));
    EXPECT_EQ(got[0].deliveredAt, msec(13));
    EXPECT_DOUBLE_EQ(got[0].watts.value(), 20.0); // idle machine
    EXPECT_EQ(got[2].intervalEnd, msec(30));
    EXPECT_EQ(meter.history().size(), 3u);
}

TEST(PowerMeter, MeasuresAveragePowerOverInterval)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {msec(10), 0});
    meter.start();
    // Busy for the second half of the first interval:
    // active = maintenance 4 + core (6 + 2*1) = 12 W for 5 ms.
    sim.schedule(msec(5), [&] {
        m.setRunning(0, ActivityVector{1.0, 0.0, 0.0, 0.0});
    });
    sim.run(msec(10));
    ASSERT_EQ(meter.history().size(), 1u);
    EXPECT_NEAR(meter.history()[0].watts.value(), 20.0 + 12.0 * 0.5, 1e-9);
}

TEST(PowerMeter, PackageScopeExcludesMachineOverheadAndDevices)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    m.setDeviceBusy(DeviceKind::Net, true);
    PowerMeter meter(m, MeterScope::Package, {msec(10), 0});
    meter.start();
    sim.run(msec(10));
    ASSERT_EQ(meter.history().size(), 1u);
    // Package idle only: no machine idle, no NIC.
    EXPECT_DOUBLE_EQ(meter.history()[0].watts.value(), 2.0);
}

TEST(PowerMeter, StopHaltsFutureSamples)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {msec(10), msec(1)});
    meter.start();
    sim.run(msec(15));
    meter.stop();
    sim.run(msec(100));
    EXPECT_EQ(meter.history().size(), 1u);
}

TEST(PowerMeter, RestartResumesCleanly)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {msec(10), 0});
    meter.start();
    meter.start(); // idempotent
    sim.run(msec(10));
    meter.stop();
    sim.run(msec(50));
    meter.start();
    sim.run(msec(70));
    // One sample from the first epoch, two from the second
    // (ticks at 60 and 70 ms).
    ASSERT_EQ(meter.history().size(), 3u);
    // Idle throughout: both samples read idle power, no energy
    // double-counting across the stopped gap.
    EXPECT_NEAR(meter.history()[1].watts.value(), 20.0, 1e-9);
}

TEST(PowerMeter, TrimHistoryKeepsMostRecent)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {msec(1), 0});
    meter.start();
    sim.run(msec(10));
    EXPECT_EQ(meter.history().size(), 10u);
    meter.trimHistory(3);
    ASSERT_EQ(meter.history().size(), 3u);
    EXPECT_EQ(meter.history()[2].intervalEnd, msec(10));
}

TEST(PowerMeter, RejectsBadTiming)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    EXPECT_THROW(PowerMeter(m, MeterScope::Machine, {0, 0}),
                 util::FatalError);
    EXPECT_THROW(PowerMeter(m, MeterScope::Machine, {msec(1), -1}),
                 util::FatalError);
}

TEST(PowerMeter, ZeroLengthNominalPeriodTripsAudit)
{
    // The constructor rejects zero-period configs, but tick()'s
    // energy-to-power conversion carries its own audit as defense in
    // depth: a zero-length interval would deliver non-finite watts.
    EXPECT_DOUBLE_EQ(
        PowerMeter::intervalWatts(util::Joules(0.2),
                                  util::SimSeconds(0.01))
            .value(),
        20.0);
#if PCON_AUDIT_LEVEL >= 1
    // The audit is compiled out at level 0.
    EXPECT_THROW(PowerMeter::intervalWatts(util::Joules(0.2),
                                           util::SimSeconds(0.0)),
                 util::PanicError);
#endif
}

TEST(PowerMeter, NoiseJittersReadingsAroundTruth)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    MeterConfig timing{msec(1), 0, 0, 0};
    timing.noiseStddevW = 0.5;
    timing.noiseSeed = 77;
    PowerMeter meter(m, MeterScope::Machine, timing);
    meter.start();
    sim.run(sec(2));
    // Idle machine: truth is exactly 20 W; noisy readings scatter
    // around it with the configured deviation.
    util::RunningStat s;
    bool any_off = false;
    for (const PowerMeter::Sample &sample : meter.history()) {
        s.add(sample.watts.value());
        if (std::abs(sample.watts.value() - 20.0) > 1e-9)
            any_off = true;
    }
    EXPECT_TRUE(any_off);
    EXPECT_NEAR(s.mean(), 20.0, 0.1);
    EXPECT_NEAR(s.stddev(), 0.5, 0.1);
}

TEST(PowerMeter, NegativeNoiseIsFatal)
{
    Simulation sim;
    Machine m(sim, meterConfig());
    MeterConfig bad{msec(1), 0, -0.1, 0};
    EXPECT_THROW(PowerMeter(m, MeterScope::Machine, bad),
                 util::FatalError);
}

TEST(PowerMeter, WattsupStyleDelayOrdering)
{
    // A Wattsup-style meter (1 s period, 1.2 s delay) delivers sample
    // k after sample k+1's interval has already ended.
    Simulation sim;
    Machine m(sim, meterConfig());
    PowerMeter meter(m, MeterScope::Machine, {sec(1), msec(1200)});
    std::vector<SimTime> deliveries;
    meter.subscribe([&](const PowerMeter::Sample &s) {
        deliveries.push_back(s.deliveredAt);
    });
    meter.start();
    sim.run(sec(5));
    ASSERT_GE(deliveries.size(), 3u);
    EXPECT_EQ(deliveries[0], msec(2200));
    EXPECT_EQ(deliveries[1], msec(3200));
}

} // namespace
} // namespace pcon::hw
