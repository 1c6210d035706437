/**
 * @file
 * Heterogeneity-aware request distribution (Section 3.4): learn
 * per-request-type energy profiles with power containers on two
 * different machines, then route requests so each lands where its
 * relative energy efficiency is highest.
 */

#include <cstdio>
#include <memory>

#include "core/distribution.h"
#include "core/profiles.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/cluster.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

using namespace pcon;

namespace {

/** Learn per-type profiles for one app on one machine. */
core::ProfileTable
learnProfiles(const hw::MachineConfig &cfg,
              const std::shared_ptr<core::LinearPowerModel> &model,
              const char *app_name)
{
    wl::ServerWorld world(
        cfg, std::make_shared<core::LinearPowerModel>(*model));
    auto app = wl::makeApp(app_name, 21);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 1.0, 22));
    client.start();
    world.run(sim::sec(10));
    client.stop();
    core::ProfileTable table;
    table.add(world.manager().records());
    return table;
}

} // namespace

int
main()
{
    auto sb_model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    auto wc_model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::woodcrestConfig(),
                           core::ModelKind::WithChipShare));

    // Phase 1: container-profile each request type on each machine.
    std::printf("Learning per-request energy profiles...\n\n");
    core::ProfileTable sb_profiles =
        learnProfiles(hw::sandyBridgeConfig(), sb_model, "RSA-crypto");
    core::ProfileTable wc_profiles =
        learnProfiles(hw::woodcrestConfig(), wc_model, "RSA-crypto");
    core::ProfileTable sb_gae =
        learnProfiles(hw::sandyBridgeConfig(), sb_model, "GAE-Vosao");
    core::ProfileTable wc_gae =
        learnProfiles(hw::woodcrestConfig(), wc_model, "GAE-Vosao");
    std::printf("%-14s %14s %14s %10s\n", "request type",
                "E(SandyBridge)", "E(Woodcrest)", "ratio");
    for (const auto &[type, p] : sb_profiles.all()) {
        if (!wc_profiles.has(type))
            continue;
        double ratio =
            p.meanEnergyJ / wc_profiles.profile(type).meanEnergyJ;
        std::printf("%-14s %12.3f J %12.3f J %10.2f\n", type.c_str(),
                    p.meanEnergyJ.value(),
                    wc_profiles.profile(type).meanEnergyJ.value(), ratio);
    }
    for (const auto &[type, p] : sb_gae.all()) {
        if (!wc_gae.has(type))
            continue;
        double ratio =
            p.meanEnergyJ / wc_gae.profile(type).meanEnergyJ;
        std::printf("%-14s %12.3f J %12.3f J %10.2f\n", type.c_str(),
                    p.meanEnergyJ.value(), wc_gae.profile(type).meanEnergyJ.value(),
                    ratio);
    }

    std::printf("\nA low ratio means the type benefits strongly from "
                "the newer machine; when\nthe efficient machine "
                "fills up, the dispatcher spills the high-ratio "
                "types\nfirst. Running the live cluster under two "
                "policies:\n\n");

    // Phase 2: run the dispatched cluster (short windows; see
    // `pcon_paper fig14` for the full experiment).
    wl::ClusterExperimentConfig cluster_cfg;
    cluster_cfg.machines = {hw::sandyBridgeConfig(),
                            hw::woodcrestConfig()};
    cluster_cfg.models = {sb_model, wc_model};
    cluster_cfg.apps = {"GAE-Vosao", "RSA-crypto"};
    cluster_cfg.appLoadShare = {0.5, 0.5};
    cluster_cfg.warmup = sim::sec(4);
    cluster_cfg.window = sim::sec(12);
    cluster_cfg.profilingSpan = sim::sec(8);
    wl::ClusterExperiment cluster(cluster_cfg);

    for (auto [name, policy] :
         {std::pair<const char *, core::DistributionPolicy>{
              "simple load balance",
              core::DistributionPolicy::SimpleLoadBalance},
          {"workload heterogeneity-aware",
           core::DistributionPolicy::WorkloadAware}}) {
        wl::ClusterPolicyResult r = cluster.run(policy);
        std::printf("%-30s %5.1f W + %5.1f W = %6.1f W total;  "
                    "RSA %4.0f ms, GAE %4.0f ms\n",
                    name, r.activeW[0], r.activeW[1],
                    r.totalActiveW(),
                    r.responseMs.at("RSA-crypto"),
                    r.responseMs.at("GAE-Vosao"));
    }
    return 0;
}
