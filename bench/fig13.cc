/**
 * @file
 * Figure 13: cross-machine active energy usage ratio — container-
 * profiled energy per request on SandyBridge divided by the same on
 * Woodcrest — for each workload at peak load.
 *
 * Paper shape: compute-bound RSA-crypto benefits most from the newer
 * machine (ratio ~0.22); memory-bound Stress benefits least (~0.91);
 * the other workloads fall in between. A low ratio means moving that
 * request to Woodcrest is expensive.
 */

#include <memory>

#include "paper.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

namespace {

/** Mean container-profiled energy per request at peak load. */
double
meanRequestEnergy(const hw::MachineConfig &cfg,
                  const core::LinearPowerModel &model,
                  const std::string &workload)
{
    wl::ServerWorld world(
        cfg, std::make_shared<core::LinearPowerModel>(model));
    auto app = wl::makeApp(workload, 121);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 1.0, 122));
    client.start();
    world.run(sim::sec(2));
    world.manager().clearRecords();
    world.run(sim::sec(25));
    client.stop();

    double total = 0;
    for (const core::RequestRecord &r : world.manager().records())
        total += r.totalEnergyJ().value();
    return total /
        static_cast<double>(world.manager().records().size());
}

} // namespace

Tables
fig13()
{
    const core::LinearPowerModel sb_model = wl::calibrateModel(
        hw::sandyBridgeConfig(), core::ModelKind::WithChipShare);
    const core::LinearPowerModel wc_model = wl::calibrateModel(
        hw::woodcrestConfig(), core::ModelKind::WithChipShare);
    Table table{"fig13_energy_heterogeneity",
                {"workload", "e_sandybridge_j", "e_woodcrest_j", "ratio"},
                {}};
    for (const char *name :
         {"RSA-crypto", "Solr", "WeBWorK", "Stress", "GAE-Vosao"}) {
        double e_sb =
            meanRequestEnergy(hw::sandyBridgeConfig(), sb_model, name);
        double e_wc =
            meanRequestEnergy(hw::woodcrestConfig(), wc_model, name);
        table.rows.push_back({{name},
                              {num(e_sb, 3), num(e_wc, 3),
                               num(e_sb / e_wc)}});
    }
    return {table};
}

} // namespace paper
} // namespace pcon
