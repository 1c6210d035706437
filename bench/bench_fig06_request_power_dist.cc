/**
 * @file
 * Figure 6: distributions of mean request power for the Solr search
 * engine and the GAE-Hybrid workload on the SandyBridge machine at
 * half load, as container-profiled histograms.
 *
 * Paper shape: Solr requests cluster in one band; GAE-Hybrid is
 * bimodal — Vosao requests in a lower-power band and power viruses
 * in a clearly higher band.
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
runDistribution(const std::string &workload, double lo, double hi)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    auto app = wl::makeApp(workload, 91);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, 92));
    client.start();
    world.run(sec(60));
    client.stop();

    util::Histogram hist(lo, hi, 24);
    util::Histogram virus_hist(lo, hi, 24);
    for (const core::RequestRecord &r : world.manager().records()) {
        if (r.type == wl::GaeHybridApp::virusType())
            virus_hist.add(r.meanPowerW.value());
        else
            hist.add(r.meanPowerW.value());
    }

    bench::CsvSink csv("fig06_power_dist_" + workload);
    csv.row("bin_center_w", "fraction", "virus_fraction");
    for (std::size_t i = 0; i < hist.bins(); ++i)
        csv.row(hist.binCenter(i), hist.binFraction(i),
                virus_hist.binFraction(i));

    bench::section(workload + " (half load, " +
                   std::to_string(hist.total() + virus_hist.total()) +
                   " requests)");
    std::printf("%14s  %s\n", "power bin (W)", "frequency");
    auto rows = hist.asciiRows(44);
    auto virus_rows = virus_hist.asciiRows(44);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%14s  %s", bench::num(hist.binCenter(i), 1).c_str(),
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
    bench::header("Figure 6: mean request power distributions",
                  "Container-profiled; SandyBridge at half load");
    runDistribution("Solr", 4.0, 24.0);
    runDistribution("GAE-Hybrid", 4.0, 24.0);
    std::printf("\nExpected shape: GAE-Hybrid is bimodal — the "
                "power-virus mass sits well\nabove the Vosao mass.\n");
    return 0;
}
