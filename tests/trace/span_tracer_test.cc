#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/energy_index.h"
#include "obs/report.h"
#include "os/kernel.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "trace/span_json.h"
#include "trace/span_tracer.h"

namespace pcon::trace {
namespace {

using hw::ActivityVector;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::RequestId;
using os::ScriptedLogic;
using os::Task;
using sim::sec;

/** One traced machine: manager hooks first unless `tracer_first`. */
struct TracedWorld
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<core::LinearPowerModel> model;
    core::ContainerManager manager;
    SpanCollector spans;
    SpanTracer tracer;

    explicit TracedWorld(bool tracer_first = false)
        : machine(sim, config()), kernel(machine, requests),
          model(makeModel()), manager(kernel, model, {}),
          tracer(kernel, manager, spans, 0)
    {
        os::KernelHooks *first = &manager;
        os::KernelHooks *second = &tracer;
        if (tracer_first)
            std::swap(first, second);
        kernel.addHooks(first);
        kernel.addHooks(second);
    }

    static hw::MachineConfig
    config()
    {
        hw::MachineConfig cfg;
        cfg.name = "traced";
        cfg.chips = 1;
        cfg.coresPerChip = 2;
        cfg.freqGhz = 1.0;
        cfg.truth.machineIdleW = 10.0;
        cfg.truth.chipMaintenanceW = 4.0;
        cfg.truth.coreBusyW = 6.0;
        cfg.truth.insW = 2.0;
        cfg.truth.diskActiveW = 3.0;
        return cfg;
    }

    static std::shared_ptr<core::LinearPowerModel>
    makeModel()
    {
        auto model = std::make_shared<core::LinearPowerModel>();
        model->setCoefficient(core::Metric::Core, 6.0);
        model->setCoefficient(core::Metric::Ins, 2.0);
        model->setCoefficient(core::Metric::ChipShare, 4.0);
        model->setCoefficient(core::Metric::Disk, 3.0);
        return model;
    }

    const core::RequestRecord *
    record(RequestId id) const
    {
        for (const core::RequestRecord &r : manager.records())
            if (r.id == id)
                return &r;
        return nullptr;
    }
};

std::shared_ptr<os::TaskLogic>
forkAndIo()
{
    auto child = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 2e6};
            }});
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 3e6};
            },
            [child](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ForkOp{child, "child"};
            },
            [](os::Kernel &, Task &, const OpResult &r) -> Op {
                return os::WaitChildOp{r.child};
            },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::IoOp{hw::DeviceKind::Disk, 5e5};
            }});
}

/**
 * Computes under its request, rebinds itself to `to` while on its
 * core, computes again and exits there.
 */
std::shared_ptr<os::TaskLogic>
rebindWhileRunning(RequestId to)
{
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 2e6};
            },
            [to](os::Kernel &k, Task &self, const OpResult &) -> Op {
                k.bindContext(self.id, to);
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 2e6};
            }});
}

/**
 * The span dump and the text report of one world, with the tracer
 * registered after the manager or before it: two requests with a
 * fork and a disk read each, a third whose task is rebound to the
 * first while running, tasks exiting on their cores, and every
 * request completed.
 */
std::pair<std::string, std::string>
renderInRegistrationOrder(bool tracer_first)
{
    TracedWorld w(tracer_first);
    obs::EnergyIndex index;
    index.attach(w.spans);
    w.tracer.traceAll();
    RequestId a = w.requests.create("a", w.sim.now());
    RequestId b = w.requests.create("b", w.sim.now());
    RequestId c = w.requests.create("c", w.sim.now());
    w.kernel.spawn(forkAndIo(), "parent-a", a, 0);
    w.kernel.spawn(forkAndIo(), "parent-b", b, 1);
    w.kernel.spawn(rebindWhileRunning(a), "rebinder", c);
    w.sim.run(sec(1));
    for (RequestId id : {a, b, c}) {
        w.requests.complete(id, w.sim.now());
        const core::RequestRecord *rec = w.record(id);
        EXPECT_NE(rec, nullptr);
        if (rec != nullptr) {
            EXPECT_NEAR(w.spans.requestEnergyJ(id).value(),
                        rec->totalEnergyJ().value(), 1e-6);
        }
    }
    EXPECT_EQ(w.kernel.hookCalls(os::Hook::ContextRebind), 1u);
    return {renderSpanJson(w.spans), obs::fullReport(index)};
}

TEST(SpanTracer, RegistrationOrderDoesNotChangeSpans)
{
    auto manager_first = renderInRegistrationOrder(false);
    auto tracer_first = renderInRegistrationOrder(true);
    EXPECT_EQ(manager_first.first, tracer_first.first);
    EXPECT_EQ(manager_first.second, tracer_first.second);
}

TEST(SpanTracer, RequestsTracedLateSumToTheirRecords)
{
    TracedWorld w;
    RequestId ran = w.requests.create("ran", w.sim.now());
    RequestId running = w.requests.create("running", w.sim.now());
    w.kernel.spawn(forkAndIo(), "early", ran, 0);
    w.kernel.spawn(forkAndIo(), "midway", running, 1);
    // `running` is mid-way through its first compute; `ran` too, but
    // it is traced only once it has finished.
    w.sim.run(sim::msec(2));
    w.tracer.trace(running);
    w.sim.run(sec(1));
    w.tracer.trace(ran);
    w.requests.complete(ran, w.sim.now());
    w.requests.complete(running, w.sim.now());

    // What the containers held when tracing began is one charge on
    // the root; later windows land on their tasks' spans.
    for (RequestId id : {ran, running}) {
        const core::RequestRecord *rec = w.record(id);
        ASSERT_NE(rec, nullptr);
        EXPECT_GT(w.spans.span(w.spans.rootOf(id)).energyJ.value(), 0.0);
        EXPECT_NEAR(w.spans.requestEnergyJ(id).value(),
                    rec->totalEnergyJ().value(), 1e-6);
    }
    EXPECT_EQ(w.spans.requestSpans(ran),
              std::vector<SpanId>{w.spans.rootOf(ran)});
    EXPECT_GT(w.spans.requestSpans(running).size(), 1u);
    EXPECT_EQ(w.spans.openCount(), 0u);
}

TEST(SpanTracer, SpansPartitionTheContainerLedger)
{
    TracedWorld w;
    RequestId req = w.requests.create("traced", w.sim.now());
    w.tracer.trace(req);
    w.kernel.spawn(forkAndIo(), "parent", req);
    w.sim.run(sec(1));
    w.requests.complete(req, w.sim.now());

    const core::RequestRecord *rec = w.record(req);
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->totalEnergyJ().value(), 0.0);
    // The tentpole guarantee: per-span energies sum to the ledger.
    EXPECT_NEAR(w.spans.requestEnergyJ(req).value(), rec->totalEnergyJ().value(),
                1e-6);
    EXPECT_EQ(w.spans.openCount(), 0u);

    // The tree has the expected shape: a root, the parent stage, a
    // fork child under it, and a closed I/O span with its bytes.
    SpanId root = w.spans.rootOf(req);
    ASSERT_NE(root, NoSpan);
    EXPECT_EQ(w.spans.span(root).kind, SpanKind::Root);
    bool saw_fork = false, saw_io = false, saw_stage = false;
    for (SpanId id : w.spans.requestSpans(req)) {
        const Span &s = w.spans.span(id);
        switch (s.kind) {
          case SpanKind::Fork:
            saw_fork = true;
            EXPECT_EQ(s.name, "child");
            EXPECT_NE(s.parent, root);
            break;
          case SpanKind::Io:
            saw_io = true;
            EXPECT_DOUBLE_EQ(s.ioBytes, 5e5);
            break;
          case SpanKind::Stage:
            saw_stage = true;
            break;
          default:
            break;
        }
        EXPECT_FALSE(s.open);
    }
    EXPECT_TRUE(saw_fork);
    EXPECT_TRUE(saw_io);
    EXPECT_TRUE(saw_stage);
}

TEST(SpanTracer, OnlyTracedRequestsGrowSpans)
{
    TracedWorld w;
    RequestId traced = w.requests.create("a", w.sim.now());
    RequestId untraced = w.requests.create("b", w.sim.now());
    w.tracer.trace(traced);
    w.kernel.spawn(forkAndIo(), "t1", traced, 0);
    w.kernel.spawn(forkAndIo(), "t2", untraced, 1);
    w.sim.run(sec(1));
    EXPECT_TRUE(w.tracer.tracing(traced));
    EXPECT_FALSE(w.tracer.tracing(untraced));
    EXPECT_NE(w.spans.rootOf(traced), NoSpan);
    EXPECT_EQ(w.spans.rootOf(untraced), NoSpan);
    EXPECT_TRUE(w.spans.requestSpans(untraced).empty());
}

TEST(SpanTracer, TraceAllPicksUpEveryRequest)
{
    TracedWorld w;
    w.tracer.traceAll();
    RequestId a = w.requests.create("a", w.sim.now());
    RequestId b = w.requests.create("b", w.sim.now());
    w.kernel.spawn(forkAndIo(), "t1", a, 0);
    w.kernel.spawn(forkAndIo(), "t2", b, 1);
    w.sim.run(sec(1));
    w.requests.complete(a, w.sim.now());
    w.requests.complete(b, w.sim.now());
    const core::RequestRecord *ra = w.record(a);
    const core::RequestRecord *rb = w.record(b);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_NEAR(w.spans.requestEnergyJ(a).value(), ra->totalEnergyJ().value(), 1e-6);
    EXPECT_NEAR(w.spans.requestEnergyJ(b).value(), rb->totalEnergyJ().value(), 1e-6);
    EXPECT_EQ(w.spans.openCount(), 0u);
}

TEST(SpanTracer, NeverScheduledRequestYieldsARootOnlyTree)
{
    TracedWorld w;
    RequestId req = w.requests.create("idle", w.sim.now());
    w.tracer.trace(req);
    w.sim.run(sim::msec(5));
    w.requests.complete(req, w.sim.now());
    SpanId root = w.spans.rootOf(req);
    ASSERT_NE(root, NoSpan);
    EXPECT_EQ(w.spans.requestSpans(req),
              std::vector<SpanId>{root});
    EXPECT_FALSE(w.spans.span(root).open);
    EXPECT_NEAR(w.spans.requestEnergyJ(req).value(), 0.0, 1e-12);
    EXPECT_EQ(w.spans.criticalPath(req),
              std::vector<SpanId>{root});
}

TEST(SpanTracer, CompletionClosesEverySpanAndFreezesCharges)
{
    TracedWorld w;
    RequestId req = w.requests.create("early", w.sim.now());
    w.tracer.trace(req);
    // A long-running loop that outlives its request.
    auto spin = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 1e6};
            }},
        /*loop=*/true);
    w.kernel.spawn(spin, "spinner", req);
    w.sim.run(sim::msec(10));
    w.requests.complete(req, w.sim.now());
    double frozen = w.spans.requestEnergyJ(req).value();
    std::size_t count = w.spans.requestSpans(req).size();
    EXPECT_EQ(w.spans.openCount(), 0u);
    // The spinner keeps running (now on the background container);
    // the completed request's tree must not move.
    w.sim.run(sim::msec(30));
    EXPECT_DOUBLE_EQ(w.spans.requestEnergyJ(req).value(), frozen);
    EXPECT_EQ(w.spans.requestSpans(req).size(), count);
}

TEST(SpanTracer, CompletedRequestsLeaveTheTracer)
{
    TracedWorld w;
    RequestId traced = w.requests.create("a", w.sim.now());
    RequestId untraced = w.requests.create("b", w.sim.now());
    w.tracer.trace(traced);
    w.kernel.spawn(forkAndIo(), "t1", traced, 0);
    w.kernel.spawn(forkAndIo(), "t2", untraced, 1);
    w.sim.run(sec(1));
    EXPECT_EQ(w.tracer.liveRequests(), 1u);
    EXPECT_NE(w.kernel.spanFor(traced), NoSpan);
    w.requests.complete(traced, w.sim.now());
    w.requests.complete(untraced, w.sim.now());

    // No state is left, yet tracing() still answers from the trace()
    // list, and the span provider has nothing to stamp.
    EXPECT_EQ(w.tracer.liveRequests(), 0u);
    EXPECT_TRUE(w.tracer.tracing(traced));
    EXPECT_FALSE(w.tracer.tracing(untraced));
    EXPECT_EQ(w.kernel.spanFor(traced), NoSpan);

    // Tracing a completed request is ignored: no root appears.
    std::size_t spans = w.spans.size();
    w.tracer.trace(untraced);
    EXPECT_FALSE(w.tracer.tracing(untraced));
    EXPECT_EQ(w.spans.rootOf(untraced), NoSpan);
    EXPECT_EQ(w.spans.size(), spans);
    EXPECT_EQ(w.tracer.liveRequests(), 0u);
}

TEST(SpanTracer, TraceAllAnswersForCompletedRequests)
{
    TracedWorld w;
    w.tracer.traceAll();
    RequestId req = w.requests.create("a", w.sim.now());
    w.kernel.spawn(forkAndIo(), "t1", req, 0);
    w.sim.run(sec(1));
    w.requests.complete(req, w.sim.now());
    EXPECT_EQ(w.tracer.liveRequests(), 0u);
    EXPECT_TRUE(w.tracer.tracing(req));
    // An id not issued yet is neither live nor completed.
    EXPECT_FALSE(w.tracer.tracing(req + 1));
}

TEST(SpanTracer, HooksForACompletedRequestOpenNothing)
{
    TracedWorld w;
    w.tracer.traceAll();
    auto spin = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{ActivityVector{1, 0, 0, 0}, 1e6};
            }},
        /*loop=*/true);
    RequestId retired = w.requests.create("retired", w.sim.now());
    w.kernel.spawn(forkAndIo(), "short", retired, 0);
    RequestId live = w.requests.create("live", w.sim.now());
    os::TaskId spinner = w.kernel.spawn(spin, "spinner", live, 1);
    w.sim.run(sim::msec(50));
    w.requests.complete(retired, w.sim.now());
    SpanId root = w.spans.rootOf(retired);
    std::vector<SpanId> retired_spans = w.spans.requestSpans(retired);
    ASSERT_EQ(w.tracer.liveRequests(), 1u);

    // A stale tag rebinds the running spinner to the retired request:
    // the live request's stage closes, and nothing opens for the
    // retired one, however long the task runs under it.
    std::size_t spans = w.spans.size();
    w.kernel.bindContext(spinner, retired);
    w.sim.run(w.sim.now() + sim::msec(20));
    EXPECT_EQ(w.spans.size(), spans);
    EXPECT_EQ(w.spans.rootOf(retired), root);
    EXPECT_EQ(w.spans.requestSpans(retired), retired_spans);
    EXPECT_EQ(w.spans.openCount(), 1u); // the live request's root
    EXPECT_EQ(w.tracer.liveRequests(), 1u);
    EXPECT_EQ(w.kernel.spanFor(retired), NoSpan);
}

TEST(SpanTracer, BindMetricsPublishesTraceCounters)
{
    TracedWorld w;
    telemetry::Registry registry;
    w.tracer.bindMetrics(registry);
    w.tracer.traceAll();
    RequestId req = w.requests.create("m", w.sim.now());
    w.kernel.spawn(forkAndIo(), "parent", req);
    w.sim.run(sec(1));
    w.requests.complete(req, w.sim.now());
    registry.collect();

    EXPECT_GT(registry.counter("trace.spans_opened").value(), 0u);
    EXPECT_EQ(registry.counter("trace.spans_opened").value(),
              registry.counter("trace.spans_closed").value());
    EXPECT_EQ(registry.counter("trace.fork_links").value(), 1u);
    EXPECT_EQ(registry.counter("trace.io_spans").value(), 1u);
    EXPECT_EQ(registry.counter("trace.requests_traced").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("trace.open_spans").value(), 0.0);
    EXPECT_DOUBLE_EQ(registry.gauge("trace.spans_total").value(),
                     static_cast<double>(w.spans.size()));
}

TEST(SpanTracer, CompletionVisitsOnlyTheCompletingRequestsSpans)
{
    TracedWorld w;
    telemetry::Registry registry;
    w.tracer.bindMetrics(registry);
    w.tracer.traceAll();
    const telemetry::Counter &visits =
        registry.counter("trace.completion_span_visits");
    auto runRequest = [&w] {
        RequestId req = w.requests.create("r", w.sim.now());
        w.kernel.spawn(forkAndIo(), "parent", req);
        w.sim.run(w.sim.now() + sim::msec(50));
        w.requests.complete(req, w.sim.now());
        return req;
    };
    for (int i = 0; i < 1000; ++i)
        runRequest();
    std::uint64_t before = visits.value();
    RequestId last = runRequest();
    std::size_t own = w.spans.requestSpans(last).size();
    // Completion walks the request's own spans, not the ~1000x more
    // recorded before it.
    EXPECT_EQ(visits.value() - before, own);
    EXPECT_GE(w.spans.size(), 1000 * own);
    EXPECT_EQ(w.spans.openCount(), 0u);
}

} // namespace
} // namespace pcon::trace
