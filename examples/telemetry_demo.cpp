/**
 * @file
 * End-to-end observability demo (and the Perfetto-export smoke
 * test): run the GAE-Hybrid cloud workload on a SandyBridge server
 * with the full facility attached — container accounting, online
 * recalibration, invariant auditing — and publish everything through
 * the telemetry subsystem:
 *
 *  - a metrics Registry fed by SystemTelemetry (kernel, containers,
 *    recalibration, audit, and log counters);
 *  - a Sampler snapshotting the registry every 50 simulated ms, with
 *    CSV and JSON export;
 *  - a PerfettoExporter capturing scheduling slices, rebinds, device
 *    I/O, actuations, per-container power counters, and refit
 *    markers (open telemetry_demo_trace.json in ui.perfetto.dev);
 *  - the kernel timing every hook set it calls (profileHooks), so
 *    the cost of accounting and of observation itself lands in the
 *    registry.
 *
 * Exits nonzero when any expected signal is missing, so the build
 * registers this binary as a ctest smoke test.
 */

#include <cstdio>
#include <memory>

#include "pcon.h"

using namespace pcon;

namespace {

/** Calibrate the platform once (Section 3.1 offline pass). */
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

double
readMetric(telemetry::Registry &registry, const std::string &name)
{
    for (const auto &e : registry.entries()) {
        if (e.name != name)
            continue;
        switch (e.kind) {
          case telemetry::InstrumentKind::Counter:
            return static_cast<double>(e.counter->value());
          case telemetry::InstrumentKind::Gauge:
            return e.gauge->value();
          case telemetry::InstrumentKind::Histogram:
            return static_cast<double>(e.histogram->count());
        }
    }
    return 0;
}

} // namespace

int
main()
{
    hw::MachineConfig machine_cfg = hw::sandyBridgeConfig();
    auto model = std::make_shared<core::LinearPowerModel>(
        calibrator().fit(core::ModelKind::WithChipShare));
    wl::ServerWorld world(machine_cfg, model);
    world.attachRecalibration(
        wl::toActiveSamples(calibrator(), model->idleW()));

    audit::InvariantAuditor auditor(world.kernel());
    auditor.watch(world.manager());

    // The telemetry stack. The kernel times every hook set it calls,
    // the container manager and the Perfetto exporter alike, so the
    // registry reports what accounting and observation cost on this
    // host.
    telemetry::Registry registry;
    telemetry::SystemTelemetry telemetry(registry, world.kernel());
    telemetry::PerfettoExporter perfetto(world.kernel());
    world.kernel().addHooks(&perfetto);
    telemetry::profileHooks(registry, world.kernel(),
                            machine_cfg.freqGhz * 1e9);

    telemetry.attachPerfetto(perfetto);
    telemetry.watch(world.manager());
    telemetry.watch(*world.recalibrator());
    telemetry.watch(auditor);
    telemetry::attachLogMetrics(registry);

    telemetry::SamplerConfig sampler_cfg;
    sampler_cfg.period = sim::msec(50);
    telemetry::Sampler sampler(world.sim(), registry, sampler_cfg);
    sampler.start();

    auto app = wl::makeApp("GAE-Hybrid", /*seed=*/97);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.6, 98));
    client.start();
    world.run(sim::sec(3));
    client.stop();
    world.run(sim::msec(200));
    registry.collect();

    perfetto.finish();
    sampler.writeCsv("telemetry_demo_metrics.csv");
    sampler.writeJson("telemetry_demo_metrics.json");
    perfetto.write("telemetry_demo_trace.json");

    double switches = readMetric(registry, "kernel.context_switches");
    double accounted =
        readMetric(registry, "containers.accounted_energy_j");
    double refits = readMetric(registry, "recalibration.refits");
    double sweeps = readMetric(registry, "audit.sweeps");
    double sw_samples =
        readMetric(registry, "overhead.context_switch_cycles");
    double modeled =
        readMetric(registry, "overhead.modeled_maintenance_cycles");

    std::printf("Telemetry demo: GAE-Hybrid at 0.6 utilization for "
                "3 s of simulated time.\n\n");
    std::printf("registry: %zu instruments, %zu snapshots at %.0f ms "
                "period\n",
                registry.size(), sampler.snapshots().size(),
                sim::toMillis(sampler.period()));
    std::printf("kernel:   %.0f context switches, %.0f requests "
                "completed\n",
                switches,
                readMetric(registry, "requests.completed"));
    std::printf("facility: %.2f J accounted, %.0f refits, %.0f audit "
                "sweeps, 0 violations\n",
                accounted, refits, sweeps);
    std::printf("perfetto: %zu slices, %zu instants, %zu counter "
                "samples across %zu tracks\n",
                perfetto.sliceCount(), perfetto.instantCount(),
                perfetto.counterCount(), perfetto.trackCount());

    for (const auto &e : registry.entries()) {
        if (e.kind != telemetry::InstrumentKind::Histogram ||
            e.name.rfind("overhead.", 0) != 0 ||
            e.histogram->count() == 0)
            continue;
        std::printf("%-33s n=%-6llu mean=%-8.0f p95=%-8.0f cycles\n",
                    e.name.c_str(),
                    static_cast<unsigned long long>(
                        e.histogram->count()),
                    e.histogram->mean(), e.histogram->quantile(0.95));
    }
    std::printf("overhead.modeled_maintenance_cycles = %.0f "
                "(deterministic: ops x %.0f)\n",
                modeled,
                world.manager().config().observerCost.nonhaltCycles);
    std::printf("\nwrote telemetry_demo_metrics.{csv,json} and "
                "telemetry_demo_trace.json\n");

    // Smoke validation: every layer produced signal.
    bool ok = switches > 0 && accounted > 0 && refits > 0 &&
        sweeps > 0 && sw_samples > 0 && modeled > 0 &&
        perfetto.sliceCount() > 0 && perfetto.counterCount() > 0 &&
        !sampler.snapshots().empty();
    if (!ok) {
        std::fprintf(stderr, "telemetry smoke FAILED: a layer "
                             "produced no signal\n");
        return 1;
    }
    std::printf("telemetry smoke OK\n");
    return 0;
}
