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

#include "bench_util.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;
using sim::sec;

double
measureWorkload(const hw::MachineConfig &cfg, const std::string &name,
                double utilization)
{
    // Model quality does not matter here (we print *measured* power),
    // but the container machinery runs as it would in production.
    auto model = std::make_shared<core::LinearPowerModel>();
    wl::ServerWorld world(cfg, model);
    auto app = wl::makeApp(name, 71);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), utilization));
    client.start();
    world.run(sec(2)); // warm up
    world.beginWindow();
    world.run(sec(8));
    client.stop();
    return world.measuredActiveW();
}

} // namespace

int
main()
{
    bench::header("Figure 5: measured active power (Watts)",
                  "Six workloads x {peak, half} load x three machines");
    bench::CsvSink csv("fig05_workload_power");
    csv.row("machine", "workload", "peak_w", "half_w");
    for (const hw::MachineConfig &cfg :
         {hw::woodcrestConfig(), hw::westmereConfig(),
          hw::sandyBridgeConfig()}) {
        bench::section("Machine with " + cfg.name);
        bench::row("workload", {"peak (W)", "half (W)"});
        for (const std::string &name : wl::allWorkloadNames()) {
            double peak = measureWorkload(cfg, name, 1.0);
            double half = measureWorkload(cfg, name, 0.5);
            bench::row(name, {bench::num(peak, 1),
                              bench::num(half, 1)});
            csv.row(cfg.name, name, peak, half);
        }
    }
    return 0;
}
