/**
 * @file
 * Figure 2: measurement/model alignment cross-correlation over
 * hypothetical measurement delays, for (A) the SandyBridge on-chip
 * power meter (expected peak ~1 ms) and (B) the Wattsup wall meter
 * (expected peak ~1.2 s, dominated by its USB reporting path).
 *
 * The Wattsup case slides a 1-second measurement series against the
 * finer-grained model series in 100 ms steps, as the paper's curve
 * resolution implies.
 */

#include <cmath>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/alignment.h"
#include "core/recalibration.h"
#include "os/kernel.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;
using sim::msec;
using sim::sec;

std::shared_ptr<core::LinearPowerModel>
sandyBridgeModel()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    return model;
}

/** Print a sparse correlation curve with its peak marked. */
void
printCurve(const std::vector<double> &corr, long min_delay,
           double step_ms, long best)
{
    for (std::size_t i = 0; i < corr.size(); ++i) {
        long d = min_delay + static_cast<long>(i);
        // Print every few points to keep the table readable.
        bool is_peak = d == best;
        if (!is_peak && d % 5 != 0)
            continue;
        std::string marker = is_peak ? "  <== peak" : "";
        std::printf("%10.1f ms  %+8.4f%s\n",
                    static_cast<double>(d) * step_ms, corr[i],
                    marker.c_str());
    }
}

} // namespace

int
main()
{
    bench::header("Figure 2: alignment cross-correlation",
                  "Workload: GAE-Vosao at half load on SandyBridge");

    auto model = sandyBridgeModel();
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    wl::GaeVosaoApp app(61);
    app.deploy(world.kernel());
    wl::LoadClient client(
        app, world.kernel(),
        wl::LoadClient::forUtilization(app, world.kernel(), 0.5));

    // Fine model series at 1 ms for both analyses.
    core::ModelPowerSampler sampler(world.kernel(), model, msec(1));
    sampler.start();
    world.onChipMeter().start();
    world.wattsup().start();
    std::vector<std::pair<sim::SimTime, double>> onchip, wattsup;
    world.onChipMeter().subscribe(
        [&](const hw::PowerMeter::Sample &s) {
            onchip.emplace_back(s.deliveredAt, s.watts.value());
        });
    world.wattsup().subscribe([&](const hw::PowerMeter::Sample &s) {
        wattsup.emplace_back(s.deliveredAt, s.watts.value());
    });

    client.start();
    world.run(sec(30));
    client.stop();

    // ---- (A) on-chip meter: both series at 1 ms -------------------
    bench::section("(A) Intel SandyBridge on-chip power sensor");
    std::vector<double> measured;
    for (auto &[t, w] : onchip)
        measured.push_back(w);
    std::vector<double> modeled = sampler.modeledSeries();
    // Fold the differing series start times into the scanned range.
    long start_offset = static_cast<long>(
        (onchip.front().first - sampler.windows().front().end) /
        msec(1));
    core::AlignmentScan scan_a = core::scanAlignment(
        measured, modeled, msec(1), -100 - start_offset,
        100 - start_offset, true);
    long best_a = scan_a.bestDelaySamples + start_offset;
    std::printf("   delay        cross-correlation\n");
    printCurve(scan_a.correlation, scan_a.minDelaySamples + start_offset,
               1.0, best_a);
    std::printf("Estimated on-chip meter delay: %ld ms "
                "(hardware configured: %.0f ms)\n\n",
                best_a,
                sim::toMillis(hw::sandyBridgeConfig().onChipMeter.delay));

    // ---- (B) Wattsup meter: slide 1 s samples in 100 ms steps ----
    bench::section("(B) Wattsup wall power meter");
    std::vector<double> coarse;
    for (auto &[t, w] : wattsup)
        coarse.push_back(w);
    // Re-bin the 1 ms model series to 100 ms so the resampled scan
    // steps the hypothetical delay at the figure's resolution.
    const auto &windows = sampler.windows();
    std::vector<double> fine_100ms;
    for (std::size_t i = 0; i + 100 <= windows.size(); i += 100) {
        double sum = 0;
        for (std::size_t j = i; j < i + 100; ++j)
            sum += windows[j].modeledActiveW;
        fine_100ms.push_back(sum / 100.0);
    }
    // Element k of the re-binned series covers fine windows
    // [100k, 100k+99], so its window END is front.end + 99 ms +
    // k * 100 ms.
    core::AlignmentScan scan_b = core::scanAlignmentResampled(
        coarse, wattsup.front().first, sec(1), fine_100ms,
        windows.front().end + msec(99), msec(100), 0, sec(2));
    std::printf("   delay        cross-correlation\n");
    for (std::size_t i = 0; i < scan_b.correlation.size(); ++i) {
        sim::SimTime d = static_cast<sim::SimTime>(i) * msec(100);
        std::string marker =
            d == scan_b.bestDelay ? "  <== peak" : "";
        std::printf("%10.1f ms  %+8.4f%s\n", sim::toMillis(d),
                    scan_b.correlation[i], marker.c_str());
    }
    std::printf("Estimated Wattsup delay: %.0f ms "
                "(hardware configured: %.0f ms)\n",
                sim::toMillis(scan_b.bestDelay),
                sim::toMillis(
                    hw::sandyBridgeConfig().wattsupMeter.delay));
    return 0;
}
