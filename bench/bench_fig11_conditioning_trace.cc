/**
 * @file
 * Figure 11: measured CPU package power for original and
 * power-container-conditioned executions of Google App Engine with
 * power viruses (SandyBridge on-chip meter). Viruses are introduced
 * at the 10-second mark.
 *
 * Paper shape: (A) unconditioned execution shows clear power spikes
 * once viruses arrive; (B) container-based conditioning holds power
 * at or below the target by throttling only the core running the
 * virus.
 */

#include "bench_util.h"
#include "conditioning_common.h"

namespace {

using namespace pcon;

void
printTrace(const bench::ConditioningRun &run, double target_package_w)
{
    std::printf("%10s %12s  %s\n", "time (s)", "package(W)", "");
    double pre_virus_max = 0, post_virus_max = 0;
    for (auto &[t, w] : run.packageTrace) {
        if (t <= bench::kVirusStart)
            pre_virus_max = std::max(pre_virus_max, w);
        else
            post_virus_max = std::max(post_virus_max, w);
        // Bar chart: 1 char per Watt above 25 W.
        int bar = std::max(0, static_cast<int>(w - 25.0));
        std::printf("%10.2f %12.2f  %s%s\n", sim::toSeconds(t), w,
                    std::string(static_cast<std::size_t>(bar),
                                '#')
                        .c_str(),
                    w > target_package_w ? " *over*" : "");
    }
    std::printf("\nMax package power before viruses: %.1f W; "
                "after viruses: %.1f W\n",
                pre_virus_max, post_virus_max);
}

} // namespace

int
main()
{
    double target_package =
        bench::kConditioningTargetW +
        hw::sandyBridgeConfig().truth.packageIdleW;
    bench::header(
        "Figure 11: power conditioning under power viruses",
        "GAE at peak load on SandyBridge; viruses from t=10s; "
        "target " + bench::num(target_package, 1) + " W package");

    bench::section("(A) original system (no conditioning)");
    bench::ConditioningRun original =
        bench::runConditioningExperiment(false);
    printTrace(original, target_package);

    bench::section("(B) power container-conditioned system");
    bench::ConditioningRun conditioned =
        bench::runConditioningExperiment(true);
    printTrace(conditioned, target_package);
    return 0;
}
