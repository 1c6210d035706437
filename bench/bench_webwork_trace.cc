/**
 * @file
 * End-to-end throughput bench (BENCH_webwork_trace.json): the Figure 4
 * WeBWorK multi-stage workload driven through a full ServerWorld, as
 * events per host second. Two configurations bracket the tracing
 * cost — plain container accounting, and the same run with a
 * SpanTracer capturing every request's stage tree. The workload is
 * seeded, so simulated event counts and request totals are identical
 * run to run; only the host-time rates move.
 */

#include <memory>

#include "core/power_model.h"
#include "pcon_bench.h"
#include "trace/span.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;

/** One deterministic WeBWorK run; returns simulated events executed. */
struct RunResult
{
    double events = 0;
    double requests = 0;
    double spans = 0;
    double completionVisits = 0;
};

RunResult
runWorkload(bool traced)
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

    RunResult out;
    out.events = static_cast<double>(world.sim().eventsExecuted());
    out.requests =
        static_cast<double>(world.manager().records().size());
    out.spans = static_cast<double>(spans.size());
    out.completionVisits = static_cast<double>(
        metrics.counter("trace.completion_span_visits").value());
    return out;
}

} // namespace

int
main()
{
    bench::Suite suite("webwork_trace");

    {
        RunResult last;
        suite.addRate("webwork.accounting_only", "events/sec",
                      [&last] {
                          last = runWorkload(/*traced=*/false);
                          return last.events;
                      });
        suite.aux("sim_events", last.events);
        suite.aux("requests_recorded", last.requests);

        // Deterministic per-request event cost of the accounting
        // path: the workload is seeded, so this is exact run to run
        // and is the entry the regression gate checks strictly.
        if (last.requests > 0)
            suite.addCount("webwork.sim_events_per_request",
                           "events/req",
                           last.events / last.requests);
    }

    {
        RunResult last;
        suite.addRate("webwork.span_traced", "events/sec", [&last] {
            last = runWorkload(/*traced=*/true);
            return last.events;
        });
        suite.aux("sim_events", last.events);
        suite.aux("requests_recorded", last.requests);
        suite.aux("spans_captured", last.spans);

        // Spans per request is the tracer's deterministic footprint;
        // a jump means stage trees grew (or leaked) structurally.
        if (last.requests > 0)
            suite.addCount("webwork.spans_per_request", "spans/req",
                           last.spans / last.requests);

        // Spans walked per request completion: the request's own
        // spans. A scan of the whole store would make this grow with
        // the number of requests recorded before it.
        if (last.requests > 0)
            suite.addCount("webwork.span_visits_per_completion",
                           "spans/completion",
                           last.completionVisits / last.requests);
    }

    suite.writeJson();
    return 0;
}
