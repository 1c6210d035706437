/**
 * @file
 * The span-building kernel instrumentation. A SpanTracer converts the
 * kernel's structural hooks into the causal span tree of span.h:
 * stage spans per (task, binding) episode, fork children, closed I/O
 * spans, and — via the span id stamped into every outgoing
 * RequestStatsTag — stages stitched to their sender across machines.
 * Energy comes from the ContainerManager's charge stream, not from
 * its totals: each committed CPU window lands on the stage span of
 * the task that ran it, and each I/O charge opens, charges and closes
 * an I/O span. A request's spans therefore sum to its container
 * ledger charge by charge, and the tracer may be registered before
 * or after the manager.
 */

#ifndef PCON_TRACE_SPAN_TRACER_H
#define PCON_TRACE_SPAN_TRACER_H

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

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
 * Cost, with R requests seen: a hook or a charge finds its request's
 * state in a hash table, O(1), and its task's stage link among that
 * request's few tasks. Opening a span also files it under its request
 * in the collector's ordered entry, O(log R), a few times per
 * request. Completion walks only the request's own spans.
 *
 * Memory: a request's state and its task links live only while the
 * request does. The completion listener closes the request's spans
 * and erases both; afterwards any hook, charge, trace() call or
 * span-provider lookup for the id is ignored, because the request
 * manager reports it completed.
 */
class SpanTracer : public os::KernelHooks
{
  public:
    /**
     * @param kernel Kernel to instrument: register the tracer with
     *        kernel.addHooks(&tracer), before or after the
     *        ContainerManager. The tracer installs the kernel's span
     *        provider (Kernel::setSpanProvider).
     * @param manager Accounting engine whose window and I/O charges
     *        the spans are charged from.
     * @param collector Span store (shareable across machines).
     * @param machine Machine index recorded on every span.
     */
    SpanTracer(os::Kernel &kernel, core::ContainerManager &manager,
               SpanCollector &collector, int machine);

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /**
     * Trace one request (call before or while it runs). A request
     * traced mid-flight gets what its container holds so far as one
     * charge on its root. Ignored for a request that has completed.
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
    void onTaskExit(os::Task &task) override;
    void onFork(os::Task &parent, os::Task &child) override;
    void onSegmentReceived(os::Task &task,
                           const os::Segment &segment) override;

  private:
    /** Per-request state on this machine. */
    struct RequestState
    {
        SpanId root = NoSpan;
        /** Most recent active span (causal anchor for sends/IO). */
        SpanId current = NoSpan;
        /**
         * The stage span of each task bound to the request here. A
         * link outlives its span's close until the request completes,
         * so a window the manager publishes after the hook that
         * closed the span still lands on it.
         */
        std::vector<std::pair<os::TaskId, SpanId>> stages;
    };

    sim::SimTime now() const;
    /**
     * State for a live traced request, created on first sight in
     * traceAll() mode; nullptr otherwise. Charges never create it.
     */
    RequestState *stateFor(os::RequestId id);
    /** Open the root (unless another tracer has) and charge what the
     *  request's container already holds to it. */
    RequestState &createState(os::RequestId id);
    /** The task's stage span in `st`, open or closed; NoSpan when
     *  it has none. */
    static SpanId linkedSpan(const RequestState &st, os::TaskId task);
    /** Point the task's link in `st` at `span`. */
    static void linkTask(RequestState &st, os::TaskId task, SpanId span);
    /** The task's linked stage span under `request`, or a new one
     *  opened under the root. */
    SpanId stageSpan(const os::Task &task, os::RequestId request,
                     RequestState &st);
    /** Charge a committed CPU window to its task's stage span. */
    void chargeWindow(const core::WindowCharge &window);
    /** Open, charge and close the I/O span of one device charge. */
    void chargeIo(const core::IoCharge &io);
    SpanId openSpan(os::RequestId request, const std::string &name,
                    SpanKind kind, SpanId parent, sim::SimTime at);
    void closeSpan(SpanId id, sim::SimTime at);
    /**
     * Close the request's open spans on this machine and erase its
     * state, task links included: O(that request's spans), found
     * through the collector's per-request entry.
     */
    void completeRequest(const os::RequestInfo &info);

    os::Kernel &kernel_;
    core::ContainerManager &manager_;
    SpanCollector &collector_;
    int machine_;
    bool all_ = false;
    /** Ids passed to trace(), so tracing() answers once they retire. */
    std::set<os::RequestId> requested_;
    /**
     * State of the live requests traced here. Hashed: every hook or
     * charge looks up its request, and nothing iterates it, so no
     * output depends on its order. Its name must differ from those
     * of iterated members elsewhere in src/: the determinism lint
     * tracks unordered containers by member name across files.
     */
    std::unordered_map<os::RequestId, RequestState> states_;
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
