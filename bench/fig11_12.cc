/**
 * @file
 * Figures 11 and 12: power conditioning of GAE-Vosao at peak load on
 * SandyBridge, with power viruses injected sporadically (~1 per
 * second, ~100 ms each) from the 10-second mark.
 *
 * Figure 11 traces package power (250 ms averages) without and with
 * container-based fair conditioning. Paper shape: the unconditioned
 * run spikes once viruses arrive; the conditioned run holds power at
 * or below the target by throttling only the cores running viruses.
 *
 * Figure 12 relates each conditioned request's original (before
 * throttling) power to its applied duty-cycle ratio. Paper shape:
 * normal requests run at (almost) full duty, about 2% average
 * slowdown, while power viruses are substantially throttled (~33%
 * average slowdown). Indiscriminate whole-machine throttling would
 * slow every request instead.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "core/conditioning.h"
#include "paper.h"
#include "util/stats.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

namespace {

/** System active power target of the conditioner. */
constexpr double kTargetW = 50.0;

/** Virus injections start here. */
constexpr sim::SimTime kVirusStart = sim::sec(10);

/** Results of one conditioning run. */
struct ConditioningRun
{
    /** 250 ms-averaged package power samples over the run. */
    std::vector<std::pair<sim::SimTime, double>> packageTrace;
    /** Per-request throttle stats in id order. */
    std::vector<core::ThrottleStats> throttleStats;
};

ConditioningRun
runConditioning(bool conditioned)
{
    const std::uint64_t seed = 111;
    const hw::MachineConfig cfg = hw::sandyBridgeConfig();
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(cfg, core::ModelKind::WithChipShare));
    wl::ServerWorld world(cfg, model);

    core::PowerConditioner conditioner(world.kernel(), world.manager(),
                                       core::ConditionerConfig{kTargetW, 1});
    world.kernel().addHooks(&conditioner);
    conditioner.install();
    if (conditioned)
        conditioner.enable();

    wl::GaeHybridApp app(seed);
    app.deploy(world.kernel());
    // Vosao foreground at peak load.
    wl::ClientConfig ccfg;
    ccfg.mode = wl::ClientConfig::Mode::ClosedLoop;
    ccfg.concurrency = 2 * cfg.totalCores();
    ccfg.seed = seed + 1;
    ccfg.typeMix = {{"vosao-read", 0.9}, {"vosao-write", 0.1}};
    wl::LoadClient client(app, world.kernel(), ccfg);
    client.start();

    // Sporadic power viruses from t = 10 s, ~1/s.
    auto rng = std::make_shared<sim::Rng>(seed + 2);
    std::function<void()> inject = [&world, &app, rng, &inject] {
        os::RequestId id = world.requests().create(
            wl::GaeHybridApp::virusType(), world.sim().now());
        app.submit(id, wl::GaeHybridApp::virusType());
        world.sim().schedule(sim::secF(rng->exponential(1.0)), inject);
    };
    world.sim().scheduleAt(kVirusStart, inject);

    ConditioningRun run;
    sim::SimTime step = sim::msec(250);
    for (sim::SimTime t = step; t <= sim::sec(22); t += step) {
        double before = world.machine().packageEnergyJ(0).value();
        sim::SimTime t0 = world.sim().now();
        world.run(t - t0);
        double watts = (world.machine().packageEnergyJ(0).value() - before) /
            sim::toSeconds(world.sim().now() - t0);
        run.packageTrace.emplace_back(world.sim().now(), watts);
    }
    client.stop();

    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &[id, stats] : conditioner.stats())
        run.throttleStats.push_back(stats);
    std::sort(run.throttleStats.begin(), run.throttleStats.end(),
              [](const core::ThrottleStats &a,
                 const core::ThrottleStats &b) { return a.id < b.id; });
    return run;
}

/** Largest 250 ms package power before and after viruses arrive. */
Row
peaks(const char *label, const ConditioningRun &run, double target_w)
{
    double before = 0, after = 0;
    for (auto &[t, w] : run.packageTrace) {
        double &peak = t <= kVirusStart ? before : after;
        peak = std::max(peak, w);
    }
    return {{label},
            {num(target_w, 1), num(before, 1), num(after, 1)}};
}

} // namespace

Tables
fig11()
{
    double target_w =
        kTargetW + hw::sandyBridgeConfig().truth.packageIdleW;
    ConditioningRun original = runConditioning(false);
    ConditioningRun conditioned = runConditioning(true);

    Table trace{"fig11_package_power",
                {"time_s", "original_w", "conditioned_w"}, {}};
    for (std::size_t i = 0; i < original.packageTrace.size(); ++i)
        trace.rows.push_back(
            {{},
             {num(sim::toSeconds(original.packageTrace[i].first)),
              num(original.packageTrace[i].second),
              num(conditioned.packageTrace[i].second)}});
    Table summary{"fig11_peaks",
                  {"system", "target_w", "max_before_viruses_w",
                   "max_after_viruses_w"},
                  {peaks("original", original, target_w),
                   peaks("conditioned", conditioned, target_w)}};
    return {trace, summary};
}

Tables
fig12()
{
    ConditioningRun run = runConditioning(true);

    Table scatter{"fig12_scatter",
                  {"request", "kind", "original_power_w",
                   "duty_eighths"},
                  {}};
    util::RunningStat normal_duty, virus_duty;
    util::RunningStat normal_power, virus_power;
    for (const core::ThrottleStats &s : run.throttleStats) {
        bool is_virus = s.type == wl::GaeHybridApp::virusType();
        (is_virus ? virus_duty : normal_duty).add(s.meanDutyFraction);
        (is_virus ? virus_power : normal_power)
            .add(s.originalPowerW.value());
        // The first 40 requests and every virus: a readable subset
        // of the scatter.
        if (scatter.rows.size() < 40 || is_virus)
            scatter.rows.push_back(
                {{std::to_string(s.id), is_virus ? "virus" : "normal"},
                 {num(s.originalPowerW.value()),
                  num(s.meanDutyFraction * 8.0, 0)}});
    }

    // The whole-machine alternative (Section 4.3): one duty level for
    // every request.
    int uniform = core::uniformThrottleLevel(virus_power.mean() * 4.0,
                                             kTargetW, 8);
    Table summary{"fig12_summary",
                  {"quantity", "normal", "virus"},
                  {{{"requests"},
                    {num(normal_duty.count(), 0),
                     num(virus_duty.count(), 0)}},
                   {{"mean original power (W)"},
                    {num(normal_power.mean(), 1),
                     num(virus_power.mean(), 1)}},
                   {{"mean duty ratio"},
                    {num(normal_duty.mean(), 3),
                     num(virus_duty.mean(), 3)}},
                   {{"mean slowdown"},
                    {pct(1.0 - normal_duty.mean()),
                     pct(1.0 - virus_duty.mean())}},
                   {{"uniform-throttle duty (of 8)"},
                    {num(uniform, 0), num(uniform, 0)}}}};
    return {scatter, summary};
}

} // namespace paper
} // namespace pcon
