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

#include "bench_util.h"
#include "core/profiles.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;
using sim::sec;

/** Mean container-profiled energy per request at peak load. */
double
meanRequestEnergy(const hw::MachineConfig &cfg,
                  std::shared_ptr<core::LinearPowerModel> model,
                  const std::string &workload)
{
    wl::ServerWorld world(
        cfg, std::make_shared<core::LinearPowerModel>(*model));
    auto app = wl::makeApp(workload, 121);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 1.0, 122));
    client.start();
    world.run(sec(2));
    world.manager().clearRecords();
    world.run(sec(25));
    client.stop();

    double total = 0;
    for (const core::RequestRecord &r : world.manager().records())
        total += r.totalEnergyJ().value();
    return total /
        static_cast<double>(world.manager().records().size());
}

} // namespace

int
main()
{
    bench::header(
        "Figure 13: cross-machine active energy usage ratio",
        "E(SandyBridge) / E(Woodcrest) per request, peak load");

    auto sb_model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    auto wc_model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::woodcrestConfig(),
                           core::ModelKind::WithChipShare));

    bench::CsvSink csv("fig13_energy_heterogeneity");
    csv.row("workload", "e_sandybridge_j", "e_woodcrest_j", "ratio");
    bench::row("workload", {"E_SB (J)", "E_WC (J)", "ratio"});
    for (const std::string &name :
         {std::string("RSA-crypto"), std::string("Solr"),
          std::string("WeBWorK"), std::string("Stress"),
          std::string("GAE-Vosao")}) {
        double e_sb = meanRequestEnergy(hw::sandyBridgeConfig(),
                                        sb_model, name);
        double e_wc = meanRequestEnergy(hw::woodcrestConfig(),
                                        wc_model, name);
        bench::row(name, {bench::num(e_sb, 3), bench::num(e_wc, 3),
                          bench::num(e_sb / e_wc, 2)});
        csv.row(name, e_sb, e_wc, e_sb / e_wc);
    }
    std::printf("\nPaper shape: RSA-crypto lowest (~0.22), Stress "
                "highest (~0.91); a Stress\nrequest loses far less "
                "than an RSA request when placed on Woodcrest.\n");
    return 0;
}
