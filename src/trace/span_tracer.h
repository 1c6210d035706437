/**
 * @file
 * The span-building kernel instrumentation. A SpanTracer registers as
 * KernelHooks *after* the ContainerManager (so accounting totals are
 * fresh at every callback) and converts the hook stream into the
 * causal span tree of span.h: stage spans per (task, binding)
 * episode, fork children, closed I/O spans, and — via the span id
 * stamped into every outgoing RequestStatsTag — stages stitched to
 * their sender across machines. Energy attribution is exact by
 * construction: at every hook the tracer charges the request's
 * container *delta* since the last hook to the span that caused it,
 * and the completion listener settles the residual, so a request's
 * spans always sum to its container ledger.
 */

#ifndef PCON_TRACE_SPAN_TRACER_H
#define PCON_TRACE_SPAN_TRACER_H

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/container_manager.h"
#include "core/remote_accounting.h"
#include "os/kernel.h"
#include "telemetry/registry.h"
#include "trace/span.h"

namespace pcon {
namespace trace {

/**
 * One machine's span builder. Several tracers (one per kernel) may
 * share a SpanCollector; cross-machine parent edges are then ordinary
 * span ids and flamegraphs/reports cover the whole cluster.
 *
 * Cost, with R requests seen: a hook finds its request's state and
 * its task's stage link in hash tables, O(1). A hook that opens a
 * span also files it under its request in the collector's ordered
 * entry, O(log R), a few times per request. Completion walks only
 * the request's own spans.
 *
 * Memory: charging state lives only while its request does. The
 * completion listener settles the request and erases its state;
 * afterwards any hook, trace() call or span-provider lookup for the
 * id is ignored, because the request manager reports it completed.
 */
class SpanTracer : public os::KernelHooks
{
  public:
    /**
     * @param kernel Kernel to instrument. The caller must register
     *        the tracer *after* the ContainerManager:
     *        kernel.addHooks(&tracer). The tracer installs the
     *        kernel's span provider (Kernel::setSpanProvider).
     * @param manager Accounting engine charges are read from.
     * @param collector Span store (shareable across machines).
     * @param machine Machine index recorded on every span.
     */
    SpanTracer(os::Kernel &kernel, core::ContainerManager &manager,
               SpanCollector &collector, int machine);

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /**
     * Trace one request (call before or while it runs). Ignored for
     * a request that has completed.
     */
    void trace(os::RequestId id);

    /** Trace every request this tracer's kernel sees. */
    void traceAll() { all_ = true; }

    /**
     * True when the request is being traced, or was: a live request
     * with charging state here, or a completed one that traceAll()
     * or an earlier trace() call covers.
     */
    bool tracing(os::RequestId id) const;

    /** Requests with charging state here: live traced requests. */
    std::size_t liveRequests() const { return states_.size(); }

    /**
     * Publish trace.* metrics: spans_opened/spans_closed/fork_links/
     * remote_links/io_spans/requests_traced counters, a
     * completion_span_visits counter (spans walked at request
     * completion: each completion walks only its own request's
     * spans), and an open_spans gauge refreshed on every registry
     * collect.
     */
    void bindMetrics(telemetry::Registry &registry);

    /**
     * Cross-machine stats merged from tags whose span id resolved to
     * another machine's span (Section 3.4 dispatcher-side view).
     */
    const core::RemoteRequestLedger &remoteLedger() const
    {
        return remoteLedger_;
    }

    /** The shared span store. */
    SpanCollector &collector() { return collector_; }

    // --- KernelHooks ---
    void onContextSwitch(int core, os::Task *prev,
                         os::Task *next) override;
    void onContextRebind(os::Task &task, os::RequestId old_ctx,
                         os::RequestId new_ctx) override;
    void onSamplingInterrupt(int core) override;
    void onIoComplete(hw::DeviceKind device, os::RequestId context,
                      sim::SimTime busy_time, double bytes) override;
    void onTaskExit(os::Task &task) override;
    void onFork(os::Task &parent, os::Task &child) override;
    void onSegmentReceived(os::Task &task,
                           const os::Segment &segment) override;

  private:
    /** Per-request charging state on this machine. */
    struct RequestState
    {
        SpanId root = NoSpan;
        /** Most recent active span (causal anchor for sends/IO). */
        SpanId current = NoSpan;
        /** Container totals already charged into spans. */
        util::Joules seenEnergyJ{0};
        double seenCpuNs = 0;
        util::Cycles seenCycles{0};
        double seenInstructions = 0;
    };

    sim::SimTime now() const;
    /** State for a live traced request; nullptr otherwise. */
    RequestState *stateFor(os::RequestId id);
    /** The task's open stage span, created lazily under the root. */
    SpanId ensureTaskSpan(os::Task &task, RequestState &st);
    /** Charge the container delta since the last hook to `span`. */
    void chargeDelta(RequestState &st, os::RequestId id, SpanId span);
    SpanId openSpan(os::RequestId request, const std::string &name,
                    SpanKind kind, SpanId parent, sim::SimTime at);
    void closeSpan(SpanId id, sim::SimTime at);
    /** Point the task's stage link at `span`, replacing any other. */
    void linkTask(os::TaskId task, SpanId span);
    /** Drop the task's stage link, if it has one. */
    void unlinkTask(os::TaskId task);
    /**
     * Settle, then close the request's open spans on this machine,
     * drop their task links and erase the request's state: O(that
     * request's spans), found through the collector's per-request
     * entry and taskOfSpan_.
     */
    void completeRequest(const os::RequestInfo &info);

    os::Kernel &kernel_;
    core::ContainerManager &manager_;
    SpanCollector &collector_;
    int machine_;
    bool all_ = false;
    /** Ids passed to trace(), so tracing() answers once they retire. */
    std::set<os::RequestId> requested_;
    // The four tables below are hashed: every hook looks up its
    // request or task, and nothing iterates them, so no output
    // depends on their order. Their names must differ from those of
    // iterated members elsewhere in src/: the determinism lint
    // tracks unordered containers by member name across files.
    /** Charging state of the live requests traced here. */
    std::unordered_map<os::RequestId, RequestState> states_;
    /** Open stage span of each task (this machine). */
    std::unordered_map<os::TaskId, SpanId> spanOfTask_;
    /** The inverse of spanOfTask_ (each span has at most one task). */
    std::unordered_map<SpanId, os::TaskId> taskOfSpan_;
    /** Tasks whose span closes at the exit switch-out. */
    std::unordered_set<os::TaskId> exitPending_;
    core::RemoteRequestLedger remoteLedger_;

    telemetry::Counter *opened_ = nullptr;
    telemetry::Counter *closed_ = nullptr;
    telemetry::Counter *forkLinks_ = nullptr;
    telemetry::Counter *remoteLinks_ = nullptr;
    telemetry::Counter *ioSpans_ = nullptr;
    telemetry::Counter *requestsTraced_ = nullptr;
    telemetry::Counter *completionVisits_ = nullptr;
};

} // namespace trace
} // namespace pcon

#endif // PCON_TRACE_SPAN_TRACER_H
