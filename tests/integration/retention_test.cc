/**
 * @file
 * Retained request state is flat in run length. A traced WeBWorK
 * world, wired the way perfbench wires `webwork_traced` (manager
 * hooks first, then a traceAll() SpanTracer feeding a live
 * EnergyIndex, a closed-loop client at peak load), runs to N and to
 * 4N completed requests. The request manager's and the tracer's
 * per-request tables must hold only the requests in flight at both
 * points, so they do not grow with the number of requests served.
 */

#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "core/container_manager.h"
#include "core/power_model.h"
#include "obs/energy_index.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "trace/span.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/microbench.h"

namespace pcon {
namespace {

/** perfbench's webwork_traced world, at test scale. */
struct TracedWebwork
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    core::ContainerManager manager;
    trace::SpanCollector collector;
    obs::EnergyIndex index;
    trace::SpanTracer tracer;
    wl::WeBWorKApp app{/*seed=*/11};
    std::unique_ptr<wl::LoadClient> client;
    std::uint64_t created = 0;
    std::uint64_t completed = 0;

    TracedWebwork()
        : machine(sim, hw::sandyBridgeConfig()),
          kernel(machine, requests),
          manager(kernel, std::make_shared<core::LinearPowerModel>(
                              wl::calibrateModel(
                                  hw::sandyBridgeConfig(),
                                  core::ModelKind::WithChipShare))),
          tracer(kernel, manager, collector, 0)
    {
        kernel.addHooks(&manager);
        index.attach(collector);
        tracer.traceAll();
        kernel.addHooks(&tracer);
        app.deploy(kernel);
        client = std::make_unique<wl::LoadClient>(
            app, kernel,
            wl::LoadClient::forUtilization(app, kernel, 1.0,
                                           /*seed=*/12));
        requests.onCreate([this](const os::RequestInfo &) { ++created; });
        requests.onComplete(
            [this](const os::RequestInfo &) { ++completed; });
    }

    /** Run until `n` requests have completed (bounded). */
    void
    runUntilCompleted(std::uint64_t n)
    {
        for (int slices = 0; completed < n && slices < 100000; ++slices)
            sim.run(sim.now() + sim::msec(10));
        ASSERT_GE(completed, n);
    }

    /** Every per-request table holds at most the requests in flight. */
    void
    expectLiveOnly(const char *when)
    {
        std::uint64_t in_flight = created - completed;
        EXPECT_LE(requests.liveCount(), in_flight) << when;
        EXPECT_LE(tracer.liveRequests(), in_flight) << when;
        EXPECT_EQ(requests.createdCount(), created) << when;
        EXPECT_EQ(collector.openCount(), index.openSpanCount()) << when;
    }
};

constexpr std::uint64_t kN = 150;

TEST(Retention, LiveRequestStateIsFlatInRunLength)
{
    TracedWebwork w;
    w.client->start();
    w.runUntilCompleted(kN);
    w.expectLiveOnly("after N");
    std::size_t live_n = w.requests.liveCount();
    std::size_t spans_n = w.collector.size();
    ASSERT_GT(live_n, 0u);

    w.runUntilCompleted(4 * kN);
    w.expectLiveOnly("after 4N");
    // The closed loop keeps the same requests in flight; the spans
    // (kept in full by design) grew with the requests served.
    EXPECT_EQ(w.requests.liveCount(), live_n);
    EXPECT_GT(w.collector.size(), 3 * spans_n);
}

TEST(Retention, StaleTagOnARetiredRequestOpensNothing)
{
    TracedWebwork w;
    w.client->start();
    w.runUntilCompleted(kN);
    w.client->stop();

    // The request the first completion retired, and a task running
    // under a live request.
    os::RequestId retired = os::NoRequest;
    for (os::RequestId id = 1; retired == os::NoRequest; ++id)
        if (w.requests.completed(id))
            retired = id;
    os::Task *running = nullptr;
    for (int core = 0; core < w.machine.totalCores(); ++core) {
        os::Task *t = w.kernel.runningTask(core);
        if (running == nullptr && t != nullptr &&
            w.requests.live(t->context))
            running = t;
    }
    ASSERT_NE(running, nullptr);

    // Replaying a stale tag binds the task to the retired id: the
    // tracer opens no span and no second root for it, and keeps no
    // state for it.
    trace::SpanId root = w.collector.rootOf(retired);
    ASSERT_NE(root, trace::NoSpan);
    std::size_t spans = w.collector.size();
    std::size_t live = w.tracer.liveRequests();
    w.kernel.bindContext(running->id, retired);
    EXPECT_EQ(w.collector.size(), spans);
    EXPECT_EQ(w.collector.rootOf(retired), root);
    EXPECT_EQ(w.tracer.liveRequests(), live);
    EXPECT_EQ(w.kernel.spanFor(retired), trace::NoSpan);
    EXPECT_TRUE(w.tracer.tracing(retired));
}

} // namespace
} // namespace pcon
