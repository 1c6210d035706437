/**
 * @file
 * Golden shape quantities: deterministic costs of the accounting and
 * tracing paths, pinned as exact `name value` lines in
 * tests/data/golden_shapes.txt. A change that moves any of them —
 * one more event per context switch, one more span per request —
 * fails here until the fixture is regenerated (PCON_UPDATE_GOLDEN=1)
 * and the diff is reviewed.
 *
 * Each scenario runs a fixed pre-roll into steady state, then counts
 * over a fixed window, so every value is a pure function of the
 * seeded workload.
 * Lines are sorted by name and doubles render as the shortest
 * decimal that parses back exactly.
 */

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../hook_workload.h"
#include "core/container_manager.h"
#include "core/power_model.h"
#include "core/recalibration.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "telemetry/instrumentation.h"
#include "telemetry/registry.h"
#include "trace/span.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"

#ifndef PCON_TEST_DATA_DIR
#error "PCON_TEST_DATA_DIR must point at the committed fixtures"
#endif

namespace pcon {
namespace {

using sim::usec;

/** Quantity name -> value; std::map keeps the lines name-sorted. */
using Shapes = std::map<std::string, double>;

std::shared_ptr<core::LinearPowerModel>
makeModel()
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(26.1);
    model->setCoefficient(core::Metric::Core, 8.0);
    model->setCoefficient(core::Metric::Ins, 1.5);
    model->setCoefficient(core::Metric::Cache, 70.0);
    model->setCoefficient(core::Metric::Mem, 205.0);
    model->setCoefficient(core::Metric::ChipShare, 5.6);
    return model;
}

/** A task that computes forever with the given activity. */
std::shared_ptr<os::ScriptedLogic>
busyLogic(hw::ActivityVector activity, double instructions)
{
    return std::make_shared<os::ScriptedLogic>(
        std::vector<os::ScriptedLogic::Step>{
            [activity, instructions](os::Kernel &, os::Task &,
                                     const os::OpResult &) -> os::Op {
                return os::ComputeOp{activity, instructions};
            }},
        true);
}

/** Two short compute loops sharing core 0: every slice switches. */
void
spawnPingPong(os::Kernel &kernel, os::RequestContextManager &requests,
              sim::SimTime now, const std::string &type)
{
    for (int i = 0; i < 2; ++i) {
        os::RequestId req = requests.create(type, now);
        kernel.spawn(busyLogic({1.2, 0.1, 0.01, 0.002}, 1e5),
                     i == 0 ? "ping" : "pong", req, 0);
    }
}

/**
 * ledger.sim_events_per_op: simulated events per container-ledger
 * maintenance update — one busy task, a ledger sample on core 0
 * every 10 simulated us.
 */
void
ledgerShapes(Shapes &out)
{
    wl::ServerWorld world(hw::sandyBridgeConfig(), makeModel());
    os::RequestId req =
        world.requests().create("ledger", world.sim().now());
    world.kernel().spawn(busyLogic({1.5, 0.1, 0.02, 0.004}, 1e15),
                         "subject", req, 0);
    world.run(sim::msec(1));
    sim::SimTime t = world.sim().now();
    auto update = [&world, &t] {
        t += usec(10);
        world.sim().run(t);
        world.manager().sampleNow(0);
    };
    for (int i = 0; i < 15000; ++i)
        update();

    const std::uint64_t window = 1000;
    std::uint64_t before = world.sim().eventsExecuted();
    for (std::uint64_t i = 0; i < window; ++i)
        update();
    out["ledger.sim_events_per_op"] =
        static_cast<double>(world.sim().eventsExecuted() - before) /
        static_cast<double>(window);
}

/**
 * kernel.sim_events_per_switch: simulated events per context switch
 * in 200 us steps, switches as the kernel counts them. The container
 * manager follows requests but is not registered as a kernel hook,
 * so only the kernel's own events count, and with no hook set
 * registered the kernel delivers no sampling interrupts.
 */
void
kernelShapes(Shapes &out)
{
    sim::Simulation sim;
    hw::Machine machine(sim, hw::sandyBridgeConfig());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    core::ContainerManager manager(kernel, makeModel(), {});
    spawnPingPong(kernel, requests, sim.now(), "hotpath");

    sim::SimTime t = sim.now();
    for (int i = 0; i < 1500; ++i) {
        t += usec(200);
        sim.run(t);
    }

    const std::uint64_t window = 100;
    std::uint64_t events_before = sim.eventsExecuted();
    std::uint64_t switches_before =
        kernel.hookCalls(os::Hook::ContextSwitch);
    for (std::uint64_t i = 0; i < window; ++i) {
        t += usec(200);
        sim.run(t);
    }
    std::uint64_t switches =
        kernel.hookCalls(os::Hook::ContextSwitch) - switches_before;
    ASSERT_GT(switches, 0u);
    out["kernel.sim_events_per_switch"] =
        static_cast<double>(sim.eventsExecuted() - events_before) /
        static_cast<double>(switches);
}

/**
 * profiled.hook_calls_per_slice: kernel hook dispatches per 200 us
 * slice with the container manager registered and every hook set
 * timed (telemetry::profileHooks). With the manager the one hook set,
 * the timer sees exactly one call per dispatch.
 */
void
profiledShapes(Shapes &out)
{
    sim::Simulation sim;
    hw::Machine machine(sim, hw::sandyBridgeConfig());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    core::ContainerManager manager(kernel, makeModel(), {});
    kernel.addHooks(&manager);
    telemetry::Registry registry;
    telemetry::profileHooks(registry, kernel,
                            hw::sandyBridgeConfig().freqGhz * 1e9);
    spawnPingPong(kernel, requests, sim.now(), "profiled");

    sim::SimTime t = sim.now();
    for (int i = 0; i < 1500; ++i) {
        t += usec(200);
        sim.run(t);
    }

    const std::uint64_t window = 200;
    std::uint64_t calls_before = hookDispatches(kernel);
    for (std::uint64_t i = 0; i < window; ++i) {
        t += usec(200);
        sim.run(t);
    }
    std::uint64_t calls = hookDispatches(kernel);
    ASSERT_EQ(registry.counter("overhead.hook_calls").value(), calls);
    out["profiled.hook_calls_per_slice"] =
        static_cast<double>(calls - calls_before) /
        static_cast<double>(window);
}

struct WebworkRun
{
    double events = 0;
    double requests = 0;
    double spans = 0;
    double completionVisits = 0;
};

/** 64 WeBWorK requests (seed 7) for 5 simulated seconds. */
WebworkRun
runWebwork(bool traced)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);

    trace::SpanCollector spans;
    telemetry::Registry metrics;
    std::unique_ptr<trace::SpanTracer> tracer;
    if (traced) {
        tracer = std::make_unique<trace::SpanTracer>(
            world.kernel(), world.manager(), spans, 0);
        tracer->traceAll();
        tracer->bindMetrics(metrics);
        world.kernel().addHooks(tracer.get());
    }

    wl::WeBWorKApp app(/*seed=*/7);
    app.deploy(world.kernel());
    for (int i = 0; i < 64; ++i) {
        std::string type =
            wl::WeBWorKApp::bucketType(i % wl::WeBWorKApp::NumBuckets);
        os::RequestId request =
            world.requests().create(type, world.sim().now());
        app.submit(request, type);
    }
    world.run(sim::sec(5));

    WebworkRun out;
    out.events = static_cast<double>(world.sim().eventsExecuted());
    out.requests =
        static_cast<double>(world.manager().records().size());
    out.spans = static_cast<double>(spans.size());
    out.completionVisits = static_cast<double>(
        metrics.counter("trace.completion_span_visits").value());
    return out;
}

/**
 * webwork.*: per-request costs of the Figure 4 workload — simulated
 * events with plain accounting, and the span tracer's footprint
 * (spans recorded, spans walked at completion) when it traces every
 * request.
 */
void
webworkShapes(Shapes &out)
{
    WebworkRun plain = runWebwork(/*traced=*/false);
    ASSERT_GT(plain.requests, 0);
    out["webwork.sim_events_per_request"] =
        plain.events / plain.requests;

    WebworkRun traced = runWebwork(/*traced=*/true);
    ASSERT_GT(traced.requests, 0);
    out["webwork.spans_per_request"] = traced.spans / traced.requests;
    out["webwork.span_visits_per_completion"] =
        traced.completionVisits / traced.requests;
}

/**
 * recal.solver_rows_per_refit: rows the refit solver sees per refit
 * once the 4,096-sample online ring is full — the offline factor, the
 * merged factors of the closed blocks' two stacks and the raw rows of
 * the block still filling and of the partly evicted oldest one,
 * against 64 + 4,096 rows uncompressed (docs/PERFORMANCE.md
 * "Compressed refits" and "Two-stack refits"). WeBWorK at half load
 * on SandyBridge, with 64 synthetic offline samples; the mean is over
 * the 100 refits after a 5-second pre-roll.
 */
void
recalShapes(Shapes &out)
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    std::vector<core::CalibrationSample> offline;
    for (int i = 0; i < 64; ++i) {
        double util = 0.25 + 0.25 * (i % 4);
        core::CalibrationSample s;
        s.metrics.set(core::Metric::Core, util * (1 + i % 8));
        s.metrics.set(core::Metric::Ins, util * (1 + i % 3));
        s.metrics.set(core::Metric::Cache, 0.01 * (i % 5));
        s.metrics.set(core::Metric::Mem, 0.002 * (i % 7));
        s.metrics.set(core::Metric::ChipShare, util);
        s.measuredFullW = 8.0 * util * (1 + i % 8) + 3.0 * util;
        offline.push_back(s);
    }
    world.attachRecalibration(offline);
    core::OnlineRecalibrator &recal = *world.recalibrator();
    double rows = 0;
    std::uint64_t refits = 0;
    bool counting = false;
    recal.onRefit(
        [&](const core::OnlineRecalibrator::RefitEvent &event) {
            if (!counting)
                return;
            rows += static_cast<double>(event.solverRows);
            ++refits;
        });

    wl::WeBWorKApp app(/*seed=*/7);
    app.deploy(world.kernel());
    wl::LoadClient client(
        app, world.kernel(),
        wl::LoadClient::forUtilization(app, world.kernel(), 0.5, 8));
    client.start();
    world.run(sim::sec(5));
    ASSERT_EQ(recal.onlineSampleCount(), 4096u);
    counting = true;
    std::uint64_t before = recal.refits();
    world.run(sim::sec(1));
    client.stop();
    ASSERT_EQ(refits, recal.refits() - before);
    ASSERT_EQ(refits, 100u);
    out["recal.solver_rows_per_refit"] =
        rows / static_cast<double>(refits);
}

std::string
render(const Shapes &shapes)
{
    std::string text;
    for (const auto &[name, value] : shapes) {
        // 32 bytes hold the shortest form of any double.
        char buf[32];
        char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
        text += name + " " + std::string(buf, end) + "\n";
    }
    return text;
}

TEST(GoldenShapes, MatchCommittedFixtureByteForByte)
{
    Shapes shapes;
    ledgerShapes(shapes);
    kernelShapes(shapes);
    profiledShapes(shapes);
    webworkShapes(shapes);
    recalShapes(shapes);
    ASSERT_FALSE(HasFatalFailure());
    std::string rendered = render(shapes);

    std::string path =
        std::string(PCON_TEST_DATA_DIR) + "/golden_shapes.txt";
    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "fixture regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    ASSERT_EQ(rendered, buf.str())
        << "golden shapes drifted from the committed fixture; if the "
           "change is intentional, regenerate with "
           "PCON_UPDATE_GOLDEN=1 and commit the diff with its reason";
}

} // namespace
} // namespace pcon
