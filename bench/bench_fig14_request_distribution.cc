/**
 * @file
 * Figure 14 and Table 1: energy usage rate and request response times
 * under three request-distribution policies on a heterogeneous
 * two-machine cluster (SandyBridge + Woodcrest) serving a combined
 * GAE-Vosao + RSA-crypto workload (~50/50 load composition).
 *
 * Paper shape (Figure 14): workload heterogeneity-aware distribution
 * saves ~30% combined active energy versus simple load balance and
 * ~25% versus machine-aware-only distribution. (Table 1): simple
 * load balance suffers much worse response times (it overloads the
 * slower Woodcrest); both heterogeneity-aware policies stay fast.
 */

#include <memory>

#include "bench_util.h"
#include "workloads/cluster.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;

} // namespace

int
main()
{
    bench::header(
        "Figure 14 + Table 1: request distribution on a "
        "heterogeneous cluster",
        "GAE-Vosao + RSA-crypto (~50/50 load), SandyBridge + "
        "Woodcrest");

    wl::ClusterExperimentConfig cfg;
    cfg.machines = {hw::sandyBridgeConfig(), hw::woodcrestConfig()};
    cfg.models = {
        std::make_shared<core::LinearPowerModel>(wl::calibrateModel(
            hw::sandyBridgeConfig(), core::ModelKind::WithChipShare)),
        std::make_shared<core::LinearPowerModel>(wl::calibrateModel(
            hw::woodcrestConfig(), core::ModelKind::WithChipShare))};
    cfg.apps = {"GAE-Vosao", "RSA-crypto"};
    cfg.appLoadShare = {0.5, 0.5};
    cfg.dispatcher = core::DispatcherConfig{0.7, sim::sec(2), 145};
    wl::ClusterExperiment experiment(cfg);
    std::printf("Probed Woodcrest mixed capacity: %.0f req/s; "
                "offered volume: %.0f req/s\n\n",
                experiment.slowestCapacityPerSec(),
                experiment.offeredRatePerSec());

    struct Row
    {
        const char *name;
        core::DistributionPolicy policy;
    };
    const Row rows[] = {
        {"Simple load balance",
         core::DistributionPolicy::SimpleLoadBalance},
        {"Machine heterogeneity-aware",
         core::DistributionPolicy::MachineAware},
        {"Workload heterogeneity-aware",
         core::DistributionPolicy::WorkloadAware},
    };

    bench::CsvSink csv("fig14_request_distribution");
    csv.row("policy", "sb_active_w", "wc_active_w", "total_w",
            "gae_response_ms", "rsa_response_ms");
    bench::section("Figure 14: active energy usage rate (J/s)");
    bench::row("policy", {"SB (W)", "WC (W)", "total (W)"}, 32);
    double totals[3];
    wl::ClusterPolicyResult results[3];
    for (int i = 0; i < 3; ++i) {
        results[i] = experiment.run(rows[i].policy);
        totals[i] = results[i].totalActiveW();
        bench::row(rows[i].name,
                   {bench::num(results[i].activeW[0], 1),
                    bench::num(results[i].activeW[1], 1),
                    bench::num(totals[i], 1)},
                   32);
        const auto &gae = results[i].dispatched.at("GAE-Vosao");
        const auto &rsa = results[i].dispatched.at("RSA-crypto");
        std::printf("%34s SB: %llu gae + %llu rsa; WC: %llu gae + "
                    "%llu rsa\n",
                    "", (unsigned long long)gae[0],
                    (unsigned long long)rsa[0],
                    (unsigned long long)gae[1],
                    (unsigned long long)rsa[1]);
        csv.row(rows[i].name, results[i].activeW[0],
                results[i].activeW[1], totals[i],
                results[i].responseMs.at("GAE-Vosao"),
                results[i].responseMs.at("RSA-crypto"));
    }
    std::printf("\nWorkload-aware saving vs simple balance: %s\n",
                bench::pct(1.0 - totals[2] / totals[0]).c_str());
    std::printf("Workload-aware saving vs machine-aware:   %s\n",
                bench::pct(1.0 - totals[2] / totals[1]).c_str());

    bench::section("Table 1: average request response time (msecs)");
    bench::row("policy", {"GAE-Vosao", "RSA-crypto"}, 32);
    for (int i = 0; i < 3; ++i)
        bench::row(rows[i].name,
                   {bench::num(results[i].responseMs.at("GAE-Vosao"),
                               0),
                    bench::num(results[i].responseMs.at("RSA-crypto"),
                               0)},
                   32);
    std::printf("\nPaper shape: ~30%% / ~25%% energy savings; simple "
                "balance suffers far\nworse response times because "
                "it overloads the slower machine.\n");
    return 0;
}
