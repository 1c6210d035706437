/**
 * @file
 * Figure 9: resource usage of Google App Engine background processes
 * (GAE-Vosao at peak and half load, SandyBridge). The background
 * processing has no traceable connection to any request; the facility
 * accounts it in a special background container.
 *
 * Paper shape: background processing claims a large minority
 * (roughly one third) of total system active power, and
 * sum-of-requests + background ~= measured active power.
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

double
backgroundEnergyJ(wl::ServerWorld &world)
{
    return world.manager().background().cpuEnergyJ().value() +
        world.manager().background().ioEnergyJ().value();
}

Row
runLoad(double utilization, const char *label)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    wl::GaeVosaoApp app(95);
    app.deploy(world.kernel());
    wl::LoadClient client(app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              app, world.kernel(), utilization, 96));
    client.start();
    world.run(sim::sec(2));
    world.beginWindow();
    double background_before = backgroundEnergyJ(world);
    sim::SimTime t0 = world.sim().now();
    world.run(sim::sec(20));
    client.stop();

    double span_s = sim::toSeconds(world.sim().now() - t0);
    double background_w =
        (backgroundEnergyJ(world) - background_before) / span_s;
    double total_accounted_w = world.accountedActiveW();
    return {{label},
            {num(total_accounted_w - background_w, 1),
             num(background_w, 1), num(total_accounted_w, 1),
             num(world.measuredActiveW(), 1),
             pct(background_w / total_accounted_w)}};
}

} // namespace

Tables
fig09()
{
    return {{"fig09_gae_background",
             {"load", "requests_w", "background_w", "modeled_w",
              "measured_w", "background_share"},
             {runLoad(1.0, "peak"), runLoad(0.5, "half")}}};
}

} // namespace paper
} // namespace pcon
