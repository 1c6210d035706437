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

#include "paper.h"
#include "workloads/cluster.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

Tables
fig14()
{
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

    const std::pair<const char *, core::DistributionPolicy> policies[] = {
        {"Simple load balance",
         core::DistributionPolicy::SimpleLoadBalance},
        {"Machine heterogeneity-aware",
         core::DistributionPolicy::MachineAware},
        {"Workload heterogeneity-aware",
         core::DistributionPolicy::WorkloadAware},
    };
    Table energy{"fig14_request_distribution",
                 {"policy", "sb_active_w", "wc_active_w", "total_w",
                  "gae_response_ms", "rsa_response_ms"},
                 {}};
    Table dispatch{"fig14_dispatch",
                   {"policy", "sb_gae", "sb_rsa", "wc_gae", "wc_rsa"},
                   {}};
    double totals[3];
    for (int i = 0; i < 3; ++i) {
        auto [name, policy] = policies[i];
        wl::ClusterPolicyResult result = experiment.run(policy);
        totals[i] = result.totalActiveW();
        energy.rows.push_back(
            {{name},
             {num(result.activeW[0], 1), num(result.activeW[1], 1),
              num(totals[i], 1),
              num(result.responseMs.at("GAE-Vosao"), 0),
              num(result.responseMs.at("RSA-crypto"), 0)}});
        const auto &gae = result.dispatched.at("GAE-Vosao");
        const auto &rsa = result.dispatched.at("RSA-crypto");
        dispatch.rows.push_back(
            {{name},
             {num(static_cast<double>(gae[0]), 0),
              num(static_cast<double>(rsa[0]), 0),
              num(static_cast<double>(gae[1]), 0),
              num(static_cast<double>(rsa[1]), 0)}});
    }

    Table cluster{
        "fig14_cluster",
        {"quantity", "value"},
        {{{"Woodcrest mixed capacity (req/s)"},
          {num(experiment.slowestCapacityPerSec(), 0)}},
         {{"offered volume (req/s)"},
          {num(experiment.offeredRatePerSec(), 0)}},
         {{"workload-aware saving vs simple balance"},
          {pct(1.0 - totals[2] / totals[0])}},
         {{"workload-aware saving vs machine-aware"},
          {pct(1.0 - totals[2] / totals[1])}}}};
    return {cluster, energy, dispatch};
}

} // namespace paper
} // namespace pcon
