/**
 * @file
 * The acceptance scenario of the fault subsystem: a full pipeline
 * (calibrated model, delayed on-chip meter, alignment, online
 * recalibration, container accounting, invariant auditing) running a
 * socketed server workload under the canonical fault plan — 10%
 * meter sample loss, one 2 s meter outage, 1% tagged-message loss —
 * must degrade gracefully: zero auditor violations, per-container
 * energy conservation intact, the refit fallback exercised, and
 * every injected fault observable through `fault.*` / `recal.*`
 * telemetry.
 */

#include <memory>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "fault/fault_injector.h"
#include "telemetry/instrumentation.h"
#include "telemetry/registry.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace {

using sim::msec;
using sim::sec;

/** Calibrate once per process; reuse across tests. */
const core::Calibrator &
calibrator()
{
    static const core::Calibrator cal = [] {
        wl::CalibrationRunConfig cfg;
        cfg.duration = sec(1);
        return wl::calibrateMachine(hw::sandyBridgeConfig(), cfg);
    }();
    return cal;
}

TEST(CanonicalFaultPlan, PipelineDegradesGracefully)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration(
        wl::toActiveSamples(calibrator(), model->idleW()));

    // The whole canonical plan, injected at the real interfaces.
    fault::FaultPlan plan = fault::FaultPlan::canonical();
    fault::FaultInjector injector(world.sim(), plan);
    injector.attachMeter(world.onChipMeter());
    injector.attachSockets(world.kernel());
    injector.attachTasks(world.kernel());
    injector.arm();

    telemetry::Registry registry;
    telemetry::SystemTelemetry telemetry(registry, world.kernel());
    injector.attachTelemetry(registry);
    ASSERT_NE(world.recalibrator(), nullptr);
    telemetry.watch(*world.recalibrator());

    audit::InvariantAuditor auditor(world.kernel());
    auditor.watch(world.manager());

    // WeBWorK: every request does an httpd <-> mysqld socket round
    // trip, so the 1% segment loss hits real tagged traffic.
    auto app = wl::makeApp("WeBWorK", 311);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 312));
    client.start();
    world.run(sec(3));
    world.beginWindow();
    world.run(sec(8)); // spans the 3 s - 5 s meter outage
    client.stop();

    core::OnlineRecalibrator &recal = *world.recalibrator();
    registry.collect();

    // 1. Faults really happened, and telemetry saw every one.
    const fault::FaultCounts &counts = injector.counts();
    EXPECT_GT(counts.meterDropped, 0u);
    EXPECT_GT(counts.meterOutageDropped, 0u);
    EXPECT_GT(counts.segmentsLost, 0u);
    EXPECT_EQ(registry.counter("fault.meter_dropped").value(),
              counts.meterDropped);
    EXPECT_EQ(registry.counter("fault.meter_outage_dropped").value(),
              counts.meterOutageDropped);
    EXPECT_EQ(registry.counter("fault.segment_lost").value(),
              counts.segmentsLost);

    // 2. The auditor stayed clean the whole run (a violation would
    // also have thrown out of run()).
    auditor.checkNow();
    EXPECT_GT(auditor.auditsRun(), 0u);
    EXPECT_EQ(auditor.violationsDetected(), 0u);

    // 3. Graceful degradation, not collapse: alignment locked on
    // despite the outage, refits kept happening, and the fallback
    // paths are visible in the recal.* counters.
    EXPECT_TRUE(recal.aligned());
    EXPECT_EQ(recal.estimatedDelay(), msec(1));
    EXPECT_GT(recal.refits(), 0u);
    EXPECT_GT(recal.refitsSkipped() + recal.refitsRejected() +
                  recal.samplesRejected() +
                  recal.lowConfidenceAlignments(),
              0u);
    EXPECT_EQ(registry.counter("recalibration.refits_skipped").value(),
              recal.refitsSkipped());
    EXPECT_GT(registry.counter("recalibration.refits").value(), 0u);

    // 4. Per-container energy conservation still holds: what the
    // containers account for tracks the machine's measured active
    // energy even though a tenth of the samples never arrived.
    EXPECT_LT(world.validationError(), 0.15);
}

TEST(CanonicalFaultPlan, RoundTripsThroughTheGrammar)
{
    // The canonical plan is expressible in (and recoverable from)
    // the plan grammar, so experiment scripts can store it as text.
    fault::FaultPlan plan = fault::FaultPlan::canonical();
    fault::FaultPlan reparsed = fault::FaultPlan::parse(plan.render());
    EXPECT_EQ(reparsed.render(), plan.render());
    EXPECT_DOUBLE_EQ(reparsed.meter.dropProbability, 0.1);
    ASSERT_EQ(reparsed.meter.outages.size(), 1u);
    EXPECT_EQ(reparsed.meter.outages[0].duration, sec(2));
    EXPECT_DOUBLE_EQ(reparsed.sockets.lossProbability, 0.01);
}

} // namespace
} // namespace pcon
