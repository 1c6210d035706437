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

#include <memory>
#include <vector>

#include "core/alignment.h"
#include "core/recalibration.h"
#include "paper.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

using sim::msec;
using sim::sec;

Tables
fig02()
{
    const hw::MachineConfig cfg = hw::sandyBridgeConfig();
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(cfg, core::ModelKind::WithChipShare));
    wl::ServerWorld world(cfg, model);
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

    // (A) on-chip meter: both series at 1 ms.
    std::vector<double> measured;
    for (auto &[t, w] : onchip)
        measured.push_back(w);
    // Fold the differing series start times into the scanned range.
    long start_offset = static_cast<long>(
        (onchip.front().first - sampler.windows().front().end) /
        msec(1));
    core::AlignmentScan scan_a = core::scanAlignment(
        measured, sampler.modeledSeries(), msec(1), -100 - start_offset,
        100 - start_offset, true);
    long best_a = scan_a.bestDelaySamples + start_offset;
    Table onchip_curve{"fig02_onchip_xcorr", {"delay_ms", "correlation"},
                       {}};
    for (std::size_t i = 0; i < scan_a.correlation.size(); ++i) {
        long d = scan_a.minDelaySamples + start_offset +
            static_cast<long>(i);
        // Every fifth millisecond and the peak keep the table short.
        if (d == best_a || d % 5 == 0)
            onchip_curve.rows.push_back(
                {{}, {num(static_cast<double>(d), 1),
                      num(scan_a.correlation[i], 4)}});
    }

    // (B) Wattsup meter: slide 1 s samples in 100 ms steps.
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
    Table wattsup_curve{"fig02_wattsup_xcorr",
                        {"delay_ms", "correlation"}, {}};
    for (std::size_t i = 0; i < scan_b.correlation.size(); ++i)
        wattsup_curve.rows.push_back(
            {{}, {num(sim::toMillis(static_cast<sim::SimTime>(i) *
                                    msec(100)),
                      1),
                  num(scan_b.correlation[i], 4)}});

    Table delays{"fig02_delay",
                 {"meter", "estimated_ms", "configured_ms"},
                 {{{"on-chip"},
                   {num(static_cast<double>(best_a), 0),
                    num(sim::toMillis(cfg.onChipMeter.delay), 0)}},
                  {{"wattsup"},
                   {num(sim::toMillis(scan_b.bestDelay), 0),
                    num(sim::toMillis(cfg.wattsupMeter.delay), 0)}}}};
    return {onchip_curve, wattsup_curve, delays};
}

} // namespace paper
} // namespace pcon
