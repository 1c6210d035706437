/**
 * @file
 * Figure 5: measured active power of the six application workloads on
 * three machines at peak load and half load.
 *
 * Paper shape: Stress and GAE-Hybrid are the hottest workloads; peak
 * load draws clearly more than half load everywhere; the dual-socket
 * machines draw more absolute active power than the single-socket
 * SandyBridge.
 */

#include <memory>

#include "paper.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"

namespace pcon {
namespace paper {

namespace {

double
measureWorkload(const hw::MachineConfig &cfg, const std::string &name,
                double utilization)
{
    // Model quality does not matter here (this is *measured* power),
    // but the container machinery runs as it would in production.
    auto model = std::make_shared<core::LinearPowerModel>();
    wl::ServerWorld world(cfg, model);
    auto app = wl::makeApp(name, 71);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), utilization));
    client.start();
    world.run(sim::sec(2)); // warm up
    world.beginWindow();
    world.run(sim::sec(8));
    client.stop();
    return world.measuredActiveW();
}

} // namespace

Tables
fig05()
{
    Table table{"fig05_workload_power",
                {"machine", "workload", "peak_w", "half_w"}, {}};
    for (const hw::MachineConfig &cfg :
         {hw::woodcrestConfig(), hw::westmereConfig(),
          hw::sandyBridgeConfig()})
        for (const std::string &name : wl::allWorkloadNames()) {
            double peak = measureWorkload(cfg, name, 1.0);
            double half = measureWorkload(cfg, name, 0.5);
            table.rows.push_back(
                {{cfg.name, name}, {num(peak, 1), num(half, 1)}});
        }
    return {table};
}

} // namespace paper
} // namespace pcon
