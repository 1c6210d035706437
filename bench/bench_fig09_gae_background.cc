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

#include "bench_util.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;
using sim::sec;

void
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
    world.run(sec(2));
    world.beginWindow();
    double background_before =
        world.manager().background().cpuEnergyJ().value() +
        world.manager().background().ioEnergyJ().value();
    sim::SimTime t0 = world.sim().now();
    world.run(sec(20));
    client.stop();

    double span_s = sim::toSeconds(world.sim().now() - t0);
    double background_w =
        (world.manager().background().cpuEnergyJ().value() +
         world.manager().background().ioEnergyJ().value() - background_before) /
        span_s;
    double total_accounted_w = world.accountedActiveW();
    double requests_w = total_accounted_w - background_w;
    double measured_w = world.measuredActiveW();

    bench::section(std::string("GAE-Vosao (") + label + ")");
    bench::row("sum of requests", {bench::num(requests_w, 1) + " W"});
    bench::row("background", {bench::num(background_w, 1) + " W"});
    bench::row("modeled total",
               {bench::num(total_accounted_w, 1) + " W"});
    bench::row("measured active", {bench::num(measured_w, 1) + " W"});
    bench::row("background share of modeled",
               {bench::pct(background_w / total_accounted_w)});
}

} // namespace

int
main()
{
    bench::header("Figure 9: GAE background processing power",
                  "GAE-Vosao on SandyBridge; background = activity "
                  "with no traceable request");
    runLoad(1.0, "peak load");
    runLoad(0.5, "half load");
    std::printf("\nPaper shape: background processing is roughly one "
                "third of total active\npower, and modeled total "
                "matches measured active power.\n");
    return 0;
}
