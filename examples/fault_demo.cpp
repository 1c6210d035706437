/**
 * @file
 * Fault-injection demo (and the graceful-degradation smoke test):
 * run the WeBWorK server workload on a SandyBridge machine with the
 * full facility attached, then execute the canonical fault plan
 * against it — 10% meter sample loss, a 2 s meter outage starting at
 * t=3 s, and 1% tagged-segment loss on the httpd <-> mysqld sockets.
 *
 * The demo prints what the injector did (the `fault.*` counters),
 * how the pipeline degraded (the `recal.*` fallback counters), and
 * the per-container accounting error at the end. It exits nonzero
 * when any of the degradation guarantees fails — faults not
 * observed, auditor violations, alignment lost, or accounting error
 * above the acceptance bound — so the build registers it as a ctest
 * smoke test.
 *
 * Plans are plain text (docs/FAULTS.md documents the grammar); the
 * demo round-trips the canonical plan through it to show the format.
 */

#include <cstdio>
#include <memory>

#include "pcon.h"

using namespace pcon;

namespace {

const core::Calibrator &
calibrator()
{
    static const core::Calibrator cal = [] {
        wl::CalibrationRunConfig cfg;
        cfg.duration = sim::sec(1);
        return wl::calibrateMachine(hw::sandyBridgeConfig(), cfg);
    }();
    return cal;
}

int
fail(const char *what)
{
    std::fprintf(stderr, "FAULT DEMO FAILED: %s\n", what);
    return 1;
}

} // namespace

int
main()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    world.attachRecalibration(
        wl::toActiveSamples(calibrator(), model->idleW()));

    // The canonical plan, expressed in (and parsed back from) the
    // textual grammar experiment scripts use.
    fault::FaultPlan plan =
        fault::FaultPlan::parse(fault::FaultPlan::canonical().render());
    std::printf("== fault plan ==\n%s\n", plan.render().c_str());

    fault::FaultInjector injector(world.sim(), plan);
    injector.attachMeter(world.onChipMeter());
    injector.attachSockets(world.kernel());
    injector.attachTasks(world.kernel());
    injector.arm();

    telemetry::Registry registry;
    telemetry::SystemTelemetry telemetry(registry, world.kernel());
    injector.attachTelemetry(registry);
    telemetry.watch(*world.recalibrator());

    audit::InvariantAuditor auditor(world.kernel());
    auditor.watch(world.manager());

    auto app = wl::makeApp("WeBWorK", 97);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 98));
    client.start();
    world.run(sim::sec(3));
    world.beginWindow();
    world.run(sim::sec(8)); // rides through the 3 s - 5 s outage
    client.stop();
    auditor.checkNow();
    registry.collect();

    const fault::FaultCounts &counts = injector.counts();
    std::printf("== injected faults ==\n");
    std::printf("meter samples dropped      %8llu\n",
                (unsigned long long)counts.meterDropped);
    std::printf("meter samples lost to outage %6llu\n",
                (unsigned long long)counts.meterOutageDropped);
    std::printf("tagged segments lost       %8llu\n",
                (unsigned long long)counts.segmentsLost);
    std::printf("total fault events         %8llu\n",
                (unsigned long long)counts.total());

    core::OnlineRecalibrator &recal = *world.recalibrator();
    std::printf("== degradation ==\n");
    std::printf("refits completed           %8zu\n", recal.refits());
    std::printf("refits skipped (fallback)  %8zu\n",
                recal.refitsSkipped());
    std::printf("refits rejected (fallback) %8zu\n",
                recal.refitsRejected());
    std::printf("low-confidence alignments  %8zu\n",
                recal.lowConfidenceAlignments());
    std::printf("audit passes               %8zu\n",
                auditor.auditsRun());
    std::printf("audit violations           %8zu\n",
                auditor.violationsDetected());
    std::printf("accounting error           %8.2f%%\n",
                100.0 * world.validationError());

    // The degradation guarantees, enforced.
    if (counts.meterDropped == 0 || counts.meterOutageDropped == 0)
        return fail("meter faults never fired");
    if (counts.segmentsLost == 0)
        return fail("segment faults never fired");
    if (registry.counter("fault.meter_dropped").value() !=
        counts.meterDropped)
        return fail("fault.* telemetry disagrees with the injector");
    if (auditor.auditsRun() == 0 || auditor.violationsDetected() != 0)
        return fail("invariant auditor unhappy");
    if (!recal.aligned() || recal.refits() == 0)
        return fail("recalibration collapsed instead of degrading");
    if (world.validationError() >= 0.15)
        return fail("accounting error above the acceptance bound");

    std::printf("fault demo OK: degraded gracefully, "
                "ledgers intact\n");
    return 0;
}
