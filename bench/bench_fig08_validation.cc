/**
 * @file
 * Figure 8: accuracy of estimating system active power from the
 * aggregate of per-request energy profiles, across three modeling
 * approaches:
 *
 *   Approach 1 — core-level events only (Equation 1);
 *   Approach 2 — plus shared chip maintenance attribution (Eq. 2/3);
 *   Approach 3 — plus measurement-aligned online recalibration.
 *
 * Paper shape: errors shrink monotonically 1 -> 2 -> 3 on every
 * machine; worst cases around 29/41/20% (Approach 1), 18/35/13%
 * (Approach 2) and 8/9/6% (Approach 3) for Woodcrest / Westmere /
 * SandyBridge. The recalibration step matters most for the
 * unusually high-power Stress workload.
 */

#include <map>
#include <memory>

#include "bench_util.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;
using sim::sec;

struct MachineSetup
{
    hw::MachineConfig cfg;
    core::LinearPowerModel model1;    // Approach 1
    core::LinearPowerModel model2;    // Approach 2/3 base
    std::vector<core::CalibrationSample> offlineActive;
};

MachineSetup
prepareMachine(const hw::MachineConfig &cfg)
{
    MachineSetup setup{cfg, core::LinearPowerModel{},
                       core::LinearPowerModel{}, {}};
    core::Calibrator calibrator = wl::calibrateMachine(cfg);
    setup.model1 = calibrator.fit(core::ModelKind::CoreEventsOnly);
    setup.model2 = calibrator.fit(core::ModelKind::WithChipShare);
    setup.offlineActive =
        wl::toActiveSamples(calibrator, setup.model2.idleW());
    return setup;
}

double
runValidation(const MachineSetup &setup, const std::string &workload,
              double utilization, int approach)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        approach == 1 ? setup.model1 : setup.model2);
    core::ContainerManagerConfig mgr_cfg;
    mgr_cfg.useChipShare = approach >= 2;
    wl::ServerWorld world(setup.cfg, model, mgr_cfg);
    if (approach == 3)
        world.attachRecalibration(setup.offlineActive);

    auto app = wl::makeApp(workload, 81);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), utilization));
    client.start();

    // Warm-up: long enough for the recalibrator to align and refit
    // even through the slow (1 Hz, 1.2 s lag) wall meter.
    bool slow_meter = approach == 3 && !setup.cfg.hasOnChipMeter;
    world.run(slow_meter ? sec(30) : sec(3));
    world.beginWindow();
    world.run(slow_meter ? sec(20) : sec(10));
    client.stop();
    return world.validationError();
}

} // namespace

int
main()
{
    bench::header(
        "Figure 8: validation error of aggregate request power",
        "|sum of profiled request power - measured active power| / "
        "measured");
    bench::CsvSink csv("fig08_validation");
    csv.row("machine", "workload", "load", "approach",
            "validation_error");
    for (const hw::MachineConfig &cfg :
         {hw::woodcrestConfig(), hw::westmereConfig(),
          hw::sandyBridgeConfig()}) {
        MachineSetup setup = prepareMachine(cfg);
        bench::section("Machine with " + cfg.name);
        bench::row("workload (load)",
                   {"approach1", "approach2", "approach3"});
        std::map<int, double> worst;
        for (const std::string &name : wl::allWorkloadNames()) {
            for (double util : {1.0, 0.5}) {
                std::vector<std::string> cells;
                for (int approach : {1, 2, 3}) {
                    double err =
                        runValidation(setup, name, util, approach);
                    worst[approach] =
                        std::max(worst[approach], err);
                    cells.push_back(bench::pct(err));
                    csv.row(cfg.name, name,
                            util > 0.9 ? "peak" : "half", approach,
                            err);
                }
                std::string label = name +
                    (util > 0.9 ? " (peak)" : " (half)");
                bench::row(label, cells);
            }
        }
        bench::row("WORST CASE",
                   {bench::pct(worst[1]), bench::pct(worst[2]),
                    bench::pct(worst[3])});
    }
    std::printf("\nPaper worst cases: Woodcrest 29/18/8%%, Westmere "
                "41/35/9%%, SandyBridge 20/13/6%%.\n");
    return 0;
}
