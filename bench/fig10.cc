/**
 * @file
 * Figure 10: accuracy of predicting system active power at *new*
 * request compositions from container-derived per-request energy
 * profiles, against two baselines (request-rate-proportional and
 * CPU-utilization-proportional), on SandyBridge.
 *
 * RSA-crypto: the original workload mixes three key sizes; the new
 * workload uses only the largest key. WeBWorK: the original workload
 * draws problem sets Zipf-style; the new workload uses only the most
 * popular bucket. Predictions are evaluated at median and higher
 * load levels.
 *
 * Paper shape: power containers within ~11% everywhere;
 * CPU-utilization-proportional up to ~19%; request-rate-proportional
 * up to ~56% (it cannot see that the new requests are much heavier
 * or lighter than the average original request).
 */

#include <cmath>
#include <map>
#include <memory>

#include "core/prediction.h"
#include "paper.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

namespace {

using sim::sec;

/** Mean CPU utilization over a window of a running world. */
struct UtilizationProbe
{
    wl::ServerWorld &world;
    std::vector<hw::CounterSnapshot> start;

    explicit UtilizationProbe(wl::ServerWorld &w) : world(w)
    {
        for (int c = 0; c < w.machine().totalCores(); ++c)
            start.push_back(w.machine().readCounters(c));
    }

    double
    utilization()
    {
        double busy = 0, elapsed = 0;
        for (int c = 0; c < world.machine().totalCores(); ++c) {
            hw::CounterSnapshot now = world.machine().readCounters(c);
            busy += now.nonhaltCycles - start[c].nonhaltCycles;
            elapsed += now.elapsedCycles - start[c].elapsedCycles;
        }
        return elapsed > 0 ? busy / elapsed : 0.0;
    }
};

struct AppExperiment
{
    std::string workload;
    /** Type mix of the new composition. */
    std::map<std::string, double> newMix;
    /** Mean service cycles of the new mix at factor 1. */
    double newMixCycles;
};

void
runExperiment(const AppExperiment &exp,
              const std::shared_ptr<core::LinearPowerModel> &model_src,
              Table &table)
{
    const hw::MachineConfig cfg = hw::sandyBridgeConfig();

    // Phase 1: profile the original workload.
    auto model = std::make_shared<core::LinearPowerModel>(*model_src);
    wl::ServerWorld profile_world(cfg, model);
    auto app = wl::makeApp(exp.workload, 97);
    app->deploy(profile_world.kernel());
    wl::LoadClient profile_client(
        *app, profile_world.kernel(),
        wl::LoadClient::forUtilization(*app, profile_world.kernel(),
                                       0.7, 98));
    profile_client.start();
    profile_world.run(sec(2));
    profile_world.beginWindow();
    UtilizationProbe probe(profile_world);
    sim::SimTime t0 = profile_world.sim().now();
    profile_world.run(sec(40));
    profile_client.stop();
    double window_s = sim::toSeconds(profile_world.sim().now() - t0);

    core::ProfileTable profiles;
    profiles.add(profile_world.manager().records());
    core::ObservedWorkload observed;
    observed.activePowerW = util::Watts(profile_world.measuredActiveW());
    observed.cpuUtilization = probe.utilization();
    for (const auto &[type, stat] : profile_client.responseStats())
        observed.composition[type] =
            static_cast<double>(stat.count()) / window_s;

    core::CompositionPredictor predictor(
        profiles, observed, cfg.totalCores());

    // Phase 2: run and predict the new composition.
    for (double util : {0.5, 0.65, 0.8}) {
        double rate = util * cfg.totalCores() * cfg.freqGhz * 1e9 /
            exp.newMixCycles;
        core::Composition next;
        double weight_total = 0;
        for (const auto &[type, w] : exp.newMix)
            weight_total += w;
        for (const auto &[type, w] : exp.newMix)
            next[type] = rate * w / weight_total;

        double pred_containers = predictor.predictContainers(next);
        double pred_util =
            predictor.predictUtilizationProportional(next);
        double pred_rate = predictor.predictRateProportional(next);

        // Actually run it.
        auto run_model =
            std::make_shared<core::LinearPowerModel>(*model_src);
        wl::ServerWorld world(cfg, run_model);
        auto run_app = wl::makeApp(exp.workload, 99);
        run_app->deploy(world.kernel());
        wl::ClientConfig ccfg;
        ccfg.mode = wl::ClientConfig::Mode::OpenLoop;
        ccfg.ratePerSec = rate;
        ccfg.typeMix = exp.newMix;
        ccfg.seed = 100;
        wl::LoadClient client(*run_app, world.kernel(), ccfg);
        client.start();
        world.run(sec(2));
        world.beginWindow();
        world.run(sec(20));
        client.stop();
        double measured = world.measuredActiveW();

        auto err = [&](double p) {
            return pct(std::abs(p - measured) / measured, 0);
        };
        table.rows.push_back(
            {{exp.workload},
             {pct(util, 0), num(measured, 1), num(pred_containers, 1),
              err(pred_containers), num(pred_util, 1), err(pred_util),
              num(pred_rate, 1), err(pred_rate)}});
    }
}

} // namespace

Tables
fig10()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    Table table{"fig10_prediction",
                {"workload", "util", "measured_w", "containers_w",
                 "containers_err", "cpu_util_w", "cpu_util_err",
                 "req_rate_w", "req_rate_err"},
                {}};
    // RSA: only the largest key remains.
    runExperiment({"RSA-crypto", {{"rsa-large", 1.0}}, 48e6}, model,
                  table);
    // WeBWorK: only the most popular problem-set bucket remains
    // (scale 0.5: 80e6*0.5 + 32e6*0.25 = 48e6 cycles).
    runExperiment(
        {"WeBWorK", {{wl::WeBWorKApp::bucketType(0), 1.0}}, 48e6},
        model, table);
    return {table};
}

} // namespace paper
} // namespace pcon
