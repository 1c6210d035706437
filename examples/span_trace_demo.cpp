/**
 * @file
 * Causal span-tracing demo (and the span-trace smoke test): a
 * two-machine pipeline — a front-end on machine 0 dispatches each
 * request over a socket to a persistent worker on machine 1, which
 * forks a helper, performs disk I/O, and sends the response back —
 * traced end to end by two SpanTracers sharing one SpanCollector.
 * The cross-machine hops are stitched through the span id carried in
 * every segment's RequestStatsTag, so each request yields one span
 * tree covering both machines.
 *
 * The demo then checks the tentpole guarantees and exits nonzero if
 * any fails:
 *
 *  - every request completed and every span closed;
 *  - both directions of the socket produced Remote spans whose
 *    remoteParent lives on the other machine;
 *  - per machine, the request's span energies sum to that machine's
 *    container ledger within 1e-6 J;
 *  - the JSON dump reloads to identical per-request totals;
 *  - the trace.* metrics registered through telemetry fired.
 *
 * Artifacts (inspect after a run):
 *  - span_trace_flame.txt      collapsed-stack energy flamegraph
 *  - span_trace_perfetto.json  open in ui.perfetto.dev (flow arrows
 *                              link the span tracks of both machines)
 *  - span_trace_spans.json     feed to tools/trace_report
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pcon.h"

using namespace pcon;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

/** 1 chip x 2 cores at 1 GHz with the demo's truth coefficients. */
hw::MachineConfig
machineConfig(const char *name, double core_busy_w)
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

/** Exact model for machineConfig (no calibration error). */
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

double
readMetric(telemetry::Registry &registry, const std::string &name)
{
    for (const auto &e : registry.entries()) {
        if (e.name != name)
            continue;
        switch (e.kind) {
          case telemetry::InstrumentKind::Counter:
            return static_cast<double>(e.counter->value());
          case telemetry::InstrumentKind::Gauge:
            return e.gauge->value();
          case telemetry::InstrumentKind::Histogram:
            return static_cast<double>(e.histogram->count());
        }
    }
    return 0;
}

const core::RequestRecord *
findRecord(const core::ContainerManager &manager, os::RequestId id)
{
    for (const core::RequestRecord &r : manager.records())
        if (r.id == id)
            return &r;
    return nullptr;
}

} // namespace

int
main()
{
    sim::Simulation sim;
    // The worker machine burns more watts per busy core — the
    // imbalance report below should blame it for most of the energy.
    hw::Machine front_machine(sim, machineConfig("front", 6.0));
    hw::Machine worker_machine(sim, machineConfig("worker", 9.0));

    // One request-id space across the cluster (ids travel in
    // segments, so both kernels must agree on them).
    os::RequestContextManager requests;
    os::Kernel front_kernel(front_machine, requests);
    os::Kernel worker_kernel(worker_machine, requests);

    core::ContainerManager front_manager(front_kernel,
                                         makeModel(6.0));
    core::ContainerManager worker_manager(worker_kernel,
                                          makeModel(9.0));
    front_kernel.addHooks(&front_manager);
    worker_kernel.addHooks(&worker_manager);

    // One collector shared by both tracers: cross-machine parent
    // edges are then ordinary span ids.
    trace::SpanCollector spans;
    trace::SpanTracer front_tracer(front_kernel, front_manager, spans,
                                   0);
    trace::SpanTracer worker_tracer(worker_kernel, worker_manager,
                                    spans, 1);
    front_tracer.traceAll();
    worker_tracer.traceAll();
    front_kernel.addHooks(&front_tracer);
    worker_kernel.addHooks(&worker_tracer);

    telemetry::Registry registry;
    front_tracer.bindMetrics(registry);
    worker_tracer.bindMetrics(registry);

    telemetry::PerfettoExporter perfetto(front_kernel);
    front_kernel.addHooks(&perfetto);

    auto link = os::Kernel::connect(front_kernel, worker_kernel,
                                    sim::usec(200));
    os::Socket *front_sock = link.first;
    os::Socket *worker_sock = link.second;

    using hw::ActivityVector;
    using os::Op;
    using os::OpResult;
    using os::ScriptedLogic;
    using os::Task;
    const ActivityVector act{1, 0, 0, 0};

    // Persistent worker on machine 1: receive a request, fork a
    // helper, hit the disk, send the response, loop. The helper
    // logic is built fresh per fork — a ScriptedLogic holds its own
    // step cursor, so sharing one across children would make every
    // helper after the first exit immediately.
    auto make_helper = [act] {
        return std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [act](os::Kernel &, Task &, const OpResult &) -> Op {
                    return os::ComputeOp{act, 2e6};
                }});
    };
    auto worker_logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [worker_sock](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                return os::RecvOp{worker_sock};
            },
            [act](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::ComputeOp{act, 4e6};
            },
            [make_helper](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                return os::ForkOp{make_helper(), "helper"};
            },
            [](os::Kernel &, Task &, const OpResult &r) -> Op {
                return os::WaitChildOp{r.child};
            },
            [](os::Kernel &, Task &, const OpResult &) -> Op {
                return os::IoOp{hw::DeviceKind::Disk, 1e6};
            },
            [worker_sock](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                return os::SendOp{worker_sock, 4096};
            }},
        /*loop=*/true);
    worker_kernel.spawn(worker_logic, "worker");

    // Three staggered requests, each driven by a front-end task on
    // machine 0: compute, dispatch, await the response, post-process,
    // complete.
    constexpr int kRequests = 3;
    std::vector<os::RequestId> ids;
    for (int i = 0; i < kRequests; ++i) {
        sim.schedule(sim::msec(40) * i, [&, i] {
            os::RequestId r = requests.create(
                i % 2 == 0 ? "report" : "thumbnail", sim.now());
            ids.push_back(r);
            auto front = std::make_shared<ScriptedLogic>(
                std::vector<ScriptedLogic::Step>{
                    [act](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                        return os::ComputeOp{act, 3e6};
                    },
                    [front_sock](os::Kernel &, Task &,
                                 const OpResult &) -> Op {
                        return os::SendOp{front_sock, 2048};
                    },
                    [front_sock](os::Kernel &, Task &,
                                 const OpResult &) -> Op {
                        return os::RecvOp{front_sock};
                    },
                    [act](os::Kernel &, Task &,
                          const OpResult &) -> Op {
                        return os::ComputeOp{act, 1e6};
                    },
                    [&requests, &sim, r](os::Kernel &, Task &,
                                         const OpResult &) -> Op {
                        requests.complete(r, sim.now());
                        return os::ExitOp{};
                    }});
            front_kernel.spawn(front, "frontend", r);
        });
    }

    sim.run(sim::sec(1));

    // --- the tentpole guarantees -----------------------------------

    check(ids.size() == kRequests, "all requests were created");
    for (os::RequestId r : ids)
        check(requests.completed(r), "request ran to completion");
    check(spans.openCount() == 0, "every span closed");
    check(spans.machines().size() == 2, "spans on both machines");

    for (os::RequestId r : ids) {
        // Cross-machine stitching in both directions: the worker's
        // receive span points back at a front-machine sender, the
        // front-end's response span at a worker-machine sender.
        bool to_worker = false, to_front = false;
        for (trace::SpanId id : spans.requestSpans(r)) {
            const trace::Span &s = spans.span(id);
            if (s.remoteParent == trace::NoSpan)
                continue;
            const trace::Span &p = spans.span(s.remoteParent);
            check(p.machine != s.machine,
                  "remote parent lives on the other machine");
            if (s.machine == 1 && p.machine == 0)
                to_worker = true;
            if (s.machine == 0 && p.machine == 1)
                to_front = true;
        }
        check(to_worker, "request hop stitched front -> worker");
        check(to_front, "response hop stitched worker -> front");

        // Per-machine conservation: span energies reproduce each
        // machine's container ledger.
        const core::RequestRecord *fr = findRecord(front_manager, r);
        const core::RequestRecord *wr = findRecord(worker_manager, r);
        check(fr != nullptr && wr != nullptr,
              "both machines recorded the request");
        if (fr != nullptr)
            check(std::fabs((spans.machineEnergyJ(r, 0) -
                            fr->totalEnergyJ()).value()) <= 1e-6,
                  "front-machine spans sum to the ledger");
        if (wr != nullptr)
            check(std::fabs((spans.machineEnergyJ(r, 1) -
                            wr->totalEnergyJ()).value()) <= 1e-6,
                  "worker-machine spans sum to the ledger");
        check(spans.criticalPath(r).size() >= 3,
              "critical path spans the pipeline");
    }

    // --- artifacts --------------------------------------------------

    perfetto.finish();
    trace::exportSpansToPerfetto(spans, perfetto);
    perfetto.write("span_trace_perfetto.json");
    trace::writeFlamegraph(spans, "span_trace_flame.txt");
    trace::writeSpanJson(spans, "span_trace_spans.json");
    check(perfetto.spanSliceCount() > 0, "perfetto span slices");
    check(perfetto.flowCount() >= 2 * kRequests,
          "perfetto flow arrows for every hop");

    // The dump is the trace_report interface: reloading it must
    // reproduce every request's energy exactly.
    trace::SpanCollector reloaded =
        trace::loadSpanJson("span_trace_spans.json");
    check(reloaded.size() == spans.size(), "dump round-trips spans");
    for (os::RequestId r : ids)
        check(std::fabs((reloaded.requestEnergyJ(r) -
                        spans.requestEnergyJ(r)).value()) <= 1e-9,
              "dump round-trips request energy");

    registry.collect();
    check(readMetric(registry, "trace.spans_opened") > 0,
          "trace.spans_opened fired");
    check(readMetric(registry, "trace.remote_links") >=
              2 * kRequests,
          "trace.remote_links counted both hops");
    check(readMetric(registry, "trace.fork_links") >= kRequests,
          "trace.fork_links counted the helpers");
    check(readMetric(registry, "trace.io_spans") >= kRequests,
          "trace.io_spans counted the disk ops");
    check(readMetric(registry, "trace.open_spans") == 0,
          "trace.open_spans gauge drained");

    obs::EnergyIndex index;
    index.attach(spans);
    std::fputs(obs::fullReport(index).c_str(), stdout);
    index.detach();
    if (failures == 0)
        std::puts("\nspan_trace_demo: all checks passed");
    return failures == 0 ? 0 : 1;
}
