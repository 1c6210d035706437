/**
 * @file
 * Fair power capping (Section 3.4): run a cloud workload, inject a
 * power virus, and watch the conditioner throttle *only* the virus
 * with per-request duty-cycle modulation while normal requests keep
 * running at full speed — versus the indiscriminate whole-machine
 * throttling alternative.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/anomaly.h"
#include "core/conditioning.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

using namespace pcon;

namespace {

/** Average active power over a short probing window. */
double
probeActiveW(wl::ServerWorld &world, sim::SimTime span)
{
    world.beginWindow();
    world.run(span);
    return world.measuredActiveW();
}

} // namespace

int
main()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);

    const double target_w = 52.0;
    core::PowerConditioner conditioner(
        world.kernel(), world.manager(),
        core::ConditionerConfig{target_w, 1});
    world.kernel().addHooks(&conditioner);
    conditioner.install();

    wl::GaeHybridApp app(/*seed=*/11);
    app.deploy(world.kernel());
    wl::ClientConfig ccfg;
    ccfg.mode = wl::ClientConfig::Mode::ClosedLoop;
    ccfg.concurrency = 8;
    ccfg.typeMix = {{"vosao-read", 0.9}, {"vosao-write", 0.1}};
    wl::LoadClient client(app, world.kernel(), ccfg);
    client.start();

    std::printf("Phase 1 — normal cloud load, conditioner off:\n");
    double base_w = probeActiveW(world, sim::sec(5));
    std::printf("  active power %.1f W (target %.1f W)\n\n", base_w,
                target_w);

    // A virus every 500 ms, conditioner still off: power spikes.
    sim::Rng rng(12);
    std::function<void()> inject = [&] {
        os::RequestId id = world.requests().create(
            wl::GaeHybridApp::virusType(), world.sim().now());
        app.submit(id, wl::GaeHybridApp::virusType());
        world.sim().schedule(sim::msec(500), inject);
    };
    world.sim().schedule(0, inject);
    core::PowerAnomalyDetector detector(world.manager(), {});
    detector.scan(); // absorb the phase-1 fleet as the baseline

    std::printf("Phase 2 — power viruses arriving, conditioner "
                "off:\n");
    double virus_w = probeActiveW(world, sim::sec(5));
    std::printf("  active power %.1f W (spikes of +%.1f W over the "
                "virus-free baseline)\n",
                virus_w, virus_w - base_w);
    // The container profiles pinpoint the culprits (Section 1).
    std::vector<core::PowerAnomaly> anomalies = detector.scan();
    std::printf("  anomaly detector flagged %zu requests:\n",
                anomalies.size());
    for (std::size_t i = 0; i < anomalies.size() && i < 3; ++i)
        std::printf("    request %llu (%s): %.1f W vs fleet "
                    "%.1f +/- %.1f W%s\n",
                    (unsigned long long)anomalies[i].id,
                    anomalies[i].type.c_str(),
                    anomalies[i].meanPowerW.value(), anomalies[i].fleetMeanW,
                    anomalies[i].fleetStddevW,
                    anomalies[i].live ? " (still running)" : "");
    std::printf("\n");

    std::printf("Phase 3 — conditioner on (per-request duty-cycle "
                "modulation):\n");
    conditioner.enable();
    world.run(sim::msec(300)); // let the controller settle
    double capped_w = probeActiveW(world, sim::sec(5));
    std::printf("  active power %.1f W (cap %.1f W)\n\n", capped_w,
                target_w);

    // Fairness report, summed in id order: stats() is an unordered
    // map, so hash order would decide the sums' last bits.
    std::vector<os::RequestId> ids;
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &[id, stats] : conditioner.stats())
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    double virus_duty = 0, normal_duty = 0;
    std::uint64_t virus_n = 0, normal_n = 0;
    for (os::RequestId id : ids) {
        const core::ThrottleStats &stats = conditioner.stats().at(id);
        if (stats.type == wl::GaeHybridApp::virusType()) {
            virus_duty += stats.meanDutyFraction;
            ++virus_n;
        } else {
            normal_duty += stats.meanDutyFraction;
            ++normal_n;
        }
    }
    if (virus_n > 0 && normal_n > 0) {
        std::printf("Fairness: normal requests at %.0f%% speed, "
                    "viruses throttled to %.0f%% speed.\n",
                    100.0 * normal_duty / normal_n,
                    100.0 * virus_duty / virus_n);
    }
    int uniform = core::uniformThrottleLevel(
        virus_w, target_w, world.machine().config().dutyDenom);
    std::printf("(Indiscriminate whole-machine throttling would run "
                "EVERY request at %d/%d.)\n",
                uniform, world.machine().config().dutyDenom);
    client.stop();
    return 0;
}
