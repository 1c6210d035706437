/**
 * @file
 * Figure 12: original (before-throttling) request power versus the
 * applied CPU duty-cycle ratio for each request under container-based
 * power conditioning.
 *
 * Paper shape: low-power normal requests run at (almost) full duty —
 * about 2% average slowdown — while power viruses are substantially
 * throttled (~33% average slowdown). A few viruses that run while
 * cores are idle keep a high duty level (their fair budget is
 * larger), visible at the top-right of the scatter.
 */

#include "bench_util.h"
#include "conditioning_common.h"
#include "util/stats.h"

int
main()
{
    using namespace pcon;
    bench::header(
        "Figure 12: original request power vs applied duty-cycle",
        "Container-conditioned GAE with power viruses (SandyBridge)");

    bench::ConditioningRun run =
        bench::runConditioningExperiment(true);

    std::printf("%-12s %16s %14s\n", "request", "orig power (W)",
                "duty ratio");
    util::RunningStat normal_duty, virus_duty;
    util::RunningStat normal_power, virus_power;
    int printed = 0;
    for (const core::ThrottleStats &s : run.throttleStats) {
        bool is_virus = s.type == wl::GaeHybridApp::virusType();
        if (is_virus) {
            virus_duty.add(s.meanDutyFraction);
            virus_power.add(s.originalPowerW.value());
        } else {
            normal_duty.add(s.meanDutyFraction);
            normal_power.add(s.originalPowerW.value());
        }
        // Print a readable subset of the scatter.
        if (printed < 40 || is_virus) {
            std::printf("%-12s %16.2f %11.0f/8\n",
                        is_virus ? "virus" : "normal",
                        s.originalPowerW.value(), s.meanDutyFraction * 8.0);
            ++printed;
        }
    }

    bench::section("Summary");
    bench::row("normal requests",
               {std::to_string(normal_duty.count())});
    bench::row("  mean original power",
               {bench::num(normal_power.mean(), 1) + " W"});
    bench::row("  mean duty ratio",
               {bench::num(normal_duty.mean(), 3)});
    bench::row("  mean slowdown",
               {bench::pct(1.0 - normal_duty.mean())});
    bench::row("power viruses", {std::to_string(virus_duty.count())});
    bench::row("  mean original power",
               {bench::num(virus_power.mean(), 1) + " W"});
    bench::row("  mean duty ratio",
               {bench::num(virus_duty.mean(), 3)});
    bench::row("  mean slowdown",
               {bench::pct(1.0 - virus_duty.mean())});
    // The whole-machine alternative for comparison (Section 4.3).
    int uniform = core::uniformThrottleLevel(
        virus_power.mean() * 4.0, bench::kConditioningTargetW, 8);
    bench::row("uniform-throttle baseline",
               {std::to_string(uniform) + "/8 for ALL requests"});
    std::printf("\nPaper shape: normal requests ~2%% slowdown, "
                "viruses ~33%%; indiscriminate\nfull-machine "
                "throttling would slow every request instead.\n");
    return 0;
}
