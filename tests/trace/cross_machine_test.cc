#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "os/kernel.h"
#include "os/socket.h"
#include "sim/simulation.h"
#include "trace/span_tracer.h"

namespace pcon::trace {
namespace {

using hw::ActivityVector;
using os::Op;
using os::OpResult;
using os::RequestId;
using os::ScriptedLogic;
using os::Task;
using sim::msec;
using sim::sec;

hw::MachineConfig
config(const char *name, double core_busy_w)
{
    hw::MachineConfig cfg;
    cfg.name = name;
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.chipMaintenanceW = 4.0;
    cfg.truth.coreBusyW = core_busy_w;
    cfg.truth.insW = 2.0;
    cfg.truth.diskActiveW = 3.0;
    return cfg;
}

std::shared_ptr<core::LinearPowerModel>
makeModel(double core_busy_w)
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setCoefficient(core::Metric::Core, core_busy_w);
    model->setCoefficient(core::Metric::Ins, 2.0);
    model->setCoefficient(core::Metric::ChipShare, 4.0);
    model->setCoefficient(core::Metric::Disk, 3.0);
    return model;
}

/**
 * Two machines, one request-id space, one SpanCollector: the demo's
 * dispatcher/worker pipeline reduced to its essentials.
 */
struct Cluster
{
    sim::Simulation sim;
    hw::Machine frontMachine;
    hw::Machine workerMachine;
    os::RequestContextManager requests;
    os::Kernel front;
    os::Kernel worker;
    std::shared_ptr<core::LinearPowerModel> frontModel;
    std::shared_ptr<core::LinearPowerModel> workerModel;
    core::ContainerManager frontManager;
    core::ContainerManager workerManager;
    SpanCollector spans;
    SpanTracer frontTracer;
    SpanTracer workerTracer;
    os::Socket *frontSock;
    os::Socket *workerSock;

    Cluster()
        : frontMachine(sim, config("front", 6.0)),
          workerMachine(sim, config("worker", 9.0)),
          front(frontMachine, requests),
          worker(workerMachine, requests),
          frontModel(makeModel(6.0)), workerModel(makeModel(9.0)),
          frontManager(front, frontModel),
          workerManager(worker, workerModel),
          frontTracer(front, frontManager, spans, 0),
          workerTracer(worker, workerManager, spans, 1)
    {
        front.addHooks(&frontManager);
        worker.addHooks(&workerManager);
        front.addHooks(&frontTracer);
        worker.addHooks(&workerTracer);
        frontTracer.traceAll();
        workerTracer.traceAll();
        auto link = os::Kernel::connect(front, worker, sim::usec(200));
        frontSock = link.first;
        workerSock = link.second;
    }

    const core::RequestRecord *
    record(const core::ContainerManager &manager, RequestId id) const
    {
        for (const core::RequestRecord &r : manager.records())
            if (r.id == id)
                return &r;
        return nullptr;
    }
};

TEST(CrossMachine, RequestStatsTagStitchesSpansAcrossMachines)
{
    Cluster c;
    const ActivityVector act{1, 0, 0, 0};

    // Echo worker: receive, compute, respond, loop.
    auto echo = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [&c](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::RecvOp{c.workerSock};
            },
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ComputeOp{act, 4e6};
            },
            [&c](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::SendOp{c.workerSock, 4096};
            }},
        /*loop=*/true);
    c.worker.spawn(echo, "worker");

    RequestId req = c.requests.create("rpc", c.sim.now());
    auto client = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ComputeOp{act, 2e6};
            },
            [&c](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::SendOp{c.frontSock, 1024};
            },
            [&c](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::RecvOp{c.frontSock};
            },
            [&c, req](os::Kernel &, Task &, const OpResult &) -> Op {
                c.requests.complete(req, c.sim.now());
                return os::ExitOp{};
            }});
    c.front.spawn(client, "client", req);

    c.sim.run(sec(1));

    ASSERT_TRUE(c.requests.completed(req));
    EXPECT_EQ(c.spans.openCount(), 0u);

    // The worker's stage must be stitched to the client's sending
    // span, and the client's response stage back to the worker's.
    bool to_worker = false, to_front = false;
    for (SpanId id : c.spans.requestSpans(req)) {
        const Span &s = c.spans.span(id);
        if (s.remoteParent == NoSpan)
            continue;
        const Span &p = c.spans.span(s.remoteParent);
        EXPECT_EQ(s.kind, SpanKind::Remote);
        EXPECT_NE(p.machine, s.machine);
        EXPECT_EQ(p.request, req);
        if (s.machine == 1 && p.machine == 0)
            to_worker = true;
        if (s.machine == 0 && p.machine == 1)
            to_front = true;
    }
    EXPECT_TRUE(to_worker);
    EXPECT_TRUE(to_front);

    // Per-machine conservation: each machine's spans reproduce that
    // machine's container ledger.
    const core::RequestRecord *fr = c.record(c.frontManager, req);
    const core::RequestRecord *wr = c.record(c.workerManager, req);
    ASSERT_NE(fr, nullptr);
    ASSERT_NE(wr, nullptr);
    EXPECT_GT(fr->totalEnergyJ().value(), 0.0);
    EXPECT_GT(wr->totalEnergyJ().value(), 0.0);
    EXPECT_NEAR(c.spans.machineEnergyJ(req, 0).value(), fr->totalEnergyJ().value(),
                1e-6);
    EXPECT_NEAR(c.spans.machineEnergyJ(req, 1).value(), wr->totalEnergyJ().value(),
                1e-6);
    EXPECT_NEAR(c.spans.requestEnergyJ(req).value(),
                fr->totalEnergyJ().value() + wr->totalEnergyJ().value(), 1e-6);

    // The worker machine burns more watts per cycle than the front:
    // the imbalance must point at it.
    EXPECT_GT(c.spans.machineEnergyJ(req, 1).value(),
              c.spans.machineEnergyJ(req, 0).value());

    // The piggybacked cumulative stats fed the receive-side remote
    // ledger (Section 3.4).
    EXPECT_GE(c.workerTracer.remoteLedger().size(), 1u);

    // The critical path crosses both machines.
    std::vector<SpanId> path = c.spans.criticalPath(req);
    ASSERT_GE(path.size(), 3u);
    bool path_m0 = false, path_m1 = false;
    for (SpanId id : path) {
        if (c.spans.span(id).machine == 0)
            path_m0 = true;
        else
            path_m1 = true;
    }
    EXPECT_TRUE(path_m0);
    EXPECT_TRUE(path_m1);
}

TEST(CrossMachine, RootIsOpenedOnceClusterWide)
{
    Cluster c;
    RequestId req = c.requests.create("solo", c.sim.now());
    c.frontTracer.trace(req);
    c.workerTracer.trace(req);
    SpanId root = c.spans.rootOf(req);
    ASSERT_NE(root, NoSpan);
    // Both tracers share the collector: the second trace() call must
    // reuse the existing root instead of opening a duplicate.
    std::size_t roots = 0;
    for (const Span &s : c.spans.spans())
        if (s.request == req && s.kind == SpanKind::Root)
            ++roots;
    EXPECT_EQ(roots, 1u);
}

} // namespace
} // namespace pcon::trace
