/**
 * @file
 * Figure 3: aligned measurement/model power traces for the Intel
 * SandyBridge on-chip power meter. After shifting measurements by the
 * estimated delivery delay, the measured curve should track the
 * model-estimate curve closely through phase changes.
 */

#include <cmath>
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
fig03()
{
    const hw::MachineConfig cfg = hw::sandyBridgeConfig();
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(cfg, core::ModelKind::WithChipShare));
    wl::ServerWorld world(cfg, model);
    wl::GaeVosaoApp app(62);
    app.deploy(world.kernel());
    wl::LoadClient client(
        app, world.kernel(),
        wl::LoadClient::forUtilization(app, world.kernel(), 0.5));

    core::ModelPowerSampler sampler(world.kernel(), model, msec(1));
    sampler.start();
    world.onChipMeter().start();
    std::vector<std::pair<sim::SimTime, double>> measured;
    world.onChipMeter().subscribe(
        [&](const hw::PowerMeter::Sample &s) {
            measured.emplace_back(s.deliveredAt, s.watts.value());
        });
    client.start();
    world.run(sec(10));
    client.stop();

    // Estimate the delay, then compare a 600 ms window of both
    // curves, with measurements shifted back by the estimated delay.
    std::vector<double> meas_series;
    for (auto &[t, w] : measured)
        meas_series.push_back(w);
    long start_offset = static_cast<long>(
        (measured.front().first - sampler.windows().front().end) /
        msec(1));
    core::AlignmentScan scan = core::scanAlignment(
        meas_series, sampler.modeledSeries(), msec(1),
        -start_offset, 100 - start_offset, true);
    sim::SimTime delay =
        (scan.bestDelaySamples + start_offset) * msec(1);

    Table trace{"fig03_aligned_trace",
                {"time_ms", "measured_w", "modeled_w"}, {}};
    const auto &windows = sampler.windows();
    sim::SimTime model_start = windows.front().end;
    double sum_abs_err = 0;
    int count = 0;
    for (auto &[arrived, watts] : measured) {
        sim::SimTime physical = arrived - delay;
        if (physical < sec(4) || physical > sec(4) + msec(600))
            continue;
        long idx = static_cast<long>((physical - model_start) /
                                     msec(1));
        if (idx < 0 || idx >= static_cast<long>(windows.size()))
            continue;
        double modeled =
            windows[static_cast<std::size_t>(idx)].modeledActiveW +
            cfg.truth.packageIdleW;
        sum_abs_err += std::abs(watts - modeled);
        ++count;
        // Every 20th millisecond keeps the table short.
        if (idx % 20 == 0)
            trace.rows.push_back({{}, {num(sim::toMillis(physical), 0),
                                       num(watts), num(modeled)}});
    }

    Table summary{"fig03_alignment",
                  {"quantity", "value"},
                  {{{"estimated delay (ms)"}, {num(sim::toMillis(delay), 0)}},
                   {{"mean |measured - modeled| (W)"},
                    {num(count ? sum_abs_err / count : 0.0)}},
                   {{"aligned samples"}, {num(count, 0)}}}};
    return {trace, summary};
}

} // namespace paper
} // namespace pcon
