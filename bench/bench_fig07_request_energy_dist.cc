/**
 * @file
 * Figure 7: distributions of per-request energy usage for Solr and
 * GAE-Hybrid on SandyBridge at half load.
 *
 * Paper shape: Solr's energy spread comes primarily from execution
 * *time* variation (long-tailed queries); GAE-Hybrid's comes
 * primarily from the power gap between Vosao requests and viruses.
 */

#include <memory>

#include "bench_util.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"
#include "util/stats.h"

namespace {

using namespace pcon;
using sim::sec;

void
runDistribution(const std::string &workload, double hi)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    auto app = wl::makeApp(workload, 93);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 94));
    client.start();
    world.run(sec(60));
    client.stop();

    util::Histogram hist(0.0, hi, 24);
    util::Histogram virus_hist(0.0, hi, 24);
    util::RunningStat energy;
    for (const core::RequestRecord &r : world.manager().records()) {
        if (r.type == wl::GaeHybridApp::virusType())
            virus_hist.add(r.totalEnergyJ().value());
        else
            hist.add(r.totalEnergyJ().value());
        energy.add(r.totalEnergyJ().value());
    }

    bench::CsvSink csv("fig07_energy_dist_" + workload);
    csv.row("bin_center_j", "fraction", "virus_fraction");
    for (std::size_t i = 0; i < hist.bins(); ++i)
        csv.row(hist.binCenter(i), hist.binFraction(i),
                virus_hist.binFraction(i));

    bench::section(workload + " (mean " +
                   bench::num(energy.mean(), 3) + " J, max " +
                   bench::num(energy.max(), 2) + " J)");
    std::printf("%14s  %s\n", "energy bin (J)", "frequency");
    auto rows = hist.asciiRows(44);
    auto virus_rows = virus_hist.asciiRows(44);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%14s  %s",
                    bench::num(hist.binCenter(i), 2).c_str(),
                    rows[i].c_str());
        if (!virus_rows[i].empty())
            std::printf("  [virus] %s", virus_rows[i].c_str());
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    bench::header("Figure 7: request energy usage distributions",
                  "Container-profiled; SandyBridge at half load");
    runDistribution("Solr", 2.0);
    runDistribution("GAE-Hybrid", 2.0);
    std::printf("\nExpected shape: both long-tailed; Solr's tail from "
                "service-time variance,\nGAE-Hybrid's high mass from "
                "the viruses' power and 100 ms length.\n");
    return 0;
}
