/**
 * @file
 * Figure 4 reproduction (and the webwork-trace smoke test): capture
 * one WeBWorK request's execution as it flows through the multi-stage
 * server — Apache PHP worker, MySQL thread over a persistent socket,
 * forked latex and dvipng children, disk I/O — as a tree of causal
 * spans, each carrying the energy and average power attributed while
 * it was the request's active stage.
 *
 * The demo exits nonzero unless the worker, MySQL, latex, dvipng and
 * disk stages were all captured, every span closed, and the span
 * energies sum to the request's record within 1e-9 J.
 *
 * Artifacts (inspect after a run):
 *  - webwork_trace_spans.json     feed to tools/trace_report
 *  - webwork_trace_perfetto.json  open in ui.perfetto.dev (per-core
 *                                 scheduling, power counters, spans)
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/energy_index.h"
#include "obs/report.h"
#include "telemetry/perfetto.h"
#include "trace/export.h"
#include "trace/span_json.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

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

/** True when the request has a span of `kind` named `prefix...`. */
bool
hasStage(const trace::SpanCollector &spans, os::RequestId request,
         trace::SpanKind kind, const std::string &prefix)
{
    for (trace::SpanId id : spans.requestSpans(request)) {
        const trace::Span &s = spans.span(id);
        if (s.kind == kind && s.name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    // The world registered its ContainerManager first, so every span
    // hook sees fresh ledger totals.
    trace::SpanCollector spans;
    trace::SpanTracer tracer(world.kernel(), world.manager(), spans, 0);
    world.kernel().addHooks(&tracer);
    // A Perfetto view of the same run: per-core scheduling, the fork
    // rebinds, device I/O, and per-container power counters.
    telemetry::PerfettoExporter perfetto(world.kernel());
    world.kernel().addHooks(&perfetto);
    for (int i = 1; i <= 200; ++i)
        world.sim().schedule(sim::msec(10) * i, [&world, &perfetto] {
            perfetto.samplePower(world.manager());
        });

    wl::WeBWorKApp app(/*seed=*/7);
    app.deploy(world.kernel());

    // Submit exactly one mid-difficulty request and trace it.
    std::string type = wl::WeBWorKApp::bucketType(4);
    os::RequestId request =
        world.requests().create(type, world.sim().now());
    tracer.trace(request);
    app.submit(request, type);
    world.run(sim::sec(5));

    obs::EnergyIndex index;
    index.attach(spans);
    std::printf("Captured WeBWorK request (%s) — compare Figure 4:\n"
                "httpd PHP -> MySQL over a persistent socket -> fork "
                "latex -> fork dvipng\n-> disk write -> response. "
                "Attributed energy and power of each stage:\n\n%s\n%s",
                type.c_str(),
                obs::reportStageBreakdown(index, request).c_str(),
                obs::reportCriticalPath(index, request).c_str());

    if (world.manager().records().empty()) {
        std::fputs("FAIL: the request did not complete\n", stderr);
        return 1;
    }
    const core::RequestRecord &record = world.manager().records()[0];
    std::printf("\nRequest complete: %.1f ms end-to-end, %.1f ms "
                "on-CPU, %.3f J total\n(%.3f J CPU/memory + %.3f J "
                "device), mean power %.1f W.\n",
                sim::toMillis(record.responseTime()),
                record.cpuTimeNs / 1e6, record.totalEnergyJ().value(),
                record.cpuEnergyJ.value(), record.ioEnergyJ.value(),
                record.meanPowerW.value());

    using trace::SpanKind;
    check(hasStage(spans, request, SpanKind::Stage, "WeBWorK-worker"),
          "the PHP worker stage was captured");
    check(hasStage(spans, request, SpanKind::Stage, "mysqld"),
          "the MySQL stage was captured");
    check(hasStage(spans, request, SpanKind::Fork, "latex"),
          "the latex fork was captured");
    check(hasStage(spans, request, SpanKind::Fork, "dvipng"),
          "the dvipng fork was captured");
    check(hasStage(spans, request, SpanKind::Io, "disk"),
          "the disk write was captured");
    check(spans.openCount() == 0, "every span closed");
    check(std::fabs((spans.requestEnergyJ(request) -
                     record.totalEnergyJ()).value()) <= 1e-9,
          "stage energies sum to the request's record");

    trace::writeSpanJson(spans, "webwork_trace_spans.json");
    perfetto.finish();
    trace::exportSpansToPerfetto(spans, perfetto);
    perfetto.write("webwork_trace_perfetto.json");
    std::printf("\nSpans dumped to webwork_trace_spans.json (read it "
                "with tools/trace_report);\nPerfetto trace (%zu "
                "slices, %zu tracks) to webwork_trace_perfetto.json —\n"
                "open it in ui.perfetto.dev\n",
                perfetto.sliceCount(), perfetto.trackCount());
    index.detach();
    return failures == 0 ? 0 : 1;
}
