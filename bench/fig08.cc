/**
 * @file
 * Figure 8: accuracy of estimating system active power from the
 * aggregate of per-request energy profiles, across three modeling
 * approaches, on one machine:
 *
 *   Approach 1 — core-level events only (Equation 1);
 *   Approach 2 — plus shared chip maintenance attribution (Eq. 2/3);
 *   Approach 3 — plus measurement-aligned online recalibration.
 *
 * Paper shape: worst cases around 29/18/8% on Woodcrest, 41/35/9% on
 * Westmere and 20/13/6% on SandyBridge for Approaches 1/2/3. The
 * recalibration step matters most for the unusually high-power
 * Stress workload.
 */

#include <algorithm>
#include <memory>

#include "paper.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace pcon {
namespace paper {

namespace {

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

Tables
fig08(const hw::MachineConfig &machine)
{
    MachineSetup setup = prepareMachine(machine);
    Table table{"fig08_validation_" + machine.name,
                {"workload", "load", "approach1", "approach2",
                 "approach3"},
                {}};
    double worst[3] = {0, 0, 0};
    for (const std::string &workload : wl::allWorkloadNames())
        for (double util : {1.0, 0.5}) {
            Row row{{workload, util > 0.9 ? "peak" : "half"}, {}};
            for (int approach : {1, 2, 3}) {
                double err =
                    runValidation(setup, workload, util, approach);
                worst[approach - 1] = std::max(worst[approach - 1], err);
                row.cells.push_back(pct(err));
            }
            table.rows.push_back(row);
        }
    table.rows.push_back(
        {{"worst case", "all"},
         {pct(worst[0]), pct(worst[1]), pct(worst[2])}});
    return {table};
}

} // namespace paper
} // namespace pcon
