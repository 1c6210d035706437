/**
 * @file
 * Figures 6 and 7: distributions of mean request power (Figure 6) and
 * of per-request energy (Figure 7) for the Solr search engine and the
 * GAE-Hybrid workload on SandyBridge at half load, as
 * container-profiled histograms. Power viruses get their own column.
 *
 * Paper shape: Solr requests cluster in one power band; GAE-Hybrid is
 * bimodal, with Vosao requests in a lower band and power viruses in a
 * clearly higher one. Both energy distributions are long-tailed:
 * Solr's tail comes from service-time variance, GAE-Hybrid's high
 * mass from the viruses' power and 100 ms length.
 */

#include <memory>
#include <vector>

#include "paper.h"
#include "util/stats.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

namespace {

const char *const kWorkloads[] = {"Solr", "GAE-Hybrid"};

/** Records of a 60 s container-profiled run at half load. */
std::vector<core::RequestRecord>
halfLoadRecords(const std::string &workload, std::uint64_t seed)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    auto app = wl::makeApp(workload, seed);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), 0.5, seed + 1));
    client.start();
    world.run(sim::sec(60));
    client.stop();
    return world.manager().records();
}

bool
isVirus(const core::RequestRecord &r)
{
    return r.type == wl::GaeHybridApp::virusType();
}

/** 24 bins of `value` over [lo, hi), viruses apart from the rest. */
Table
distribution(std::string name, std::string bin_column,
             int bin_decimals, double lo, double hi,
             const std::vector<core::RequestRecord> &records,
             double (*value)(const core::RequestRecord &))
{
    util::Histogram hist(lo, hi, 24);
    util::Histogram virus_hist(lo, hi, 24);
    for (const core::RequestRecord &r : records)
        (isVirus(r) ? virus_hist : hist).add(value(r));
    Table table{std::move(name),
                {std::move(bin_column), "fraction", "virus_fraction"},
                {}};
    for (std::size_t i = 0; i < hist.bins(); ++i)
        table.rows.push_back({{},
                              {num(hist.binCenter(i), bin_decimals),
                               num(hist.binFraction(i), 3),
                               num(virus_hist.binFraction(i), 3)}});
    return table;
}

} // namespace

Tables
fig06()
{
    Tables tables;
    Table requests{"fig06_requests", {"workload", "requests"}, {}};
    for (const std::string workload : kWorkloads) {
        std::vector<core::RequestRecord> records =
            halfLoadRecords(workload, 91);
        tables.push_back(distribution(
            "fig06_power_dist_" + workload, "bin_center_w", 1, 4.0,
            24.0, records,
            [](const core::RequestRecord &r) {
                return r.meanPowerW.value();
            }));
        requests.rows.push_back(
            {{workload},
             {num(static_cast<double>(records.size()), 0)}});
    }
    tables.push_back(requests);
    return tables;
}

Tables
fig07()
{
    Tables tables;
    Table summary{"fig07_energy_summary",
                  {"workload", "mean_j", "max_j"}, {}};
    for (const std::string workload : kWorkloads) {
        std::vector<core::RequestRecord> records =
            halfLoadRecords(workload, 93);
        tables.push_back(distribution(
            "fig07_energy_dist_" + workload, "bin_center_j", 2, 0.0,
            2.0, records,
            [](const core::RequestRecord &r) {
                return r.totalEnergyJ().value();
            }));
        util::RunningStat energy;
        for (const core::RequestRecord &r : records)
            energy.add(r.totalEnergyJ().value());
        summary.rows.push_back(
            {{workload}, {num(energy.mean(), 3), num(energy.max())}});
    }
    tables.push_back(summary);
    return tables;
}

} // namespace paper
} // namespace pcon
