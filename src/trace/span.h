/**
 * @file
 * Causal request spans. A request's execution is modeled as a tree of
 * spans: one root per request, a stage span per (task, binding)
 * episode, fork spans for children, remote spans for stages stitched
 * across machines via the RequestStatsTag piggyback, and closed I/O
 * spans per device operation. Each span accumulates the energy,
 * on-CPU time, cycles, instructions, and I/O bytes the accounting
 * engine attributed while it was the request's active span, so the
 * per-span values partition the container ledger exactly.
 */

#ifndef PCON_TRACE_SPAN_H
#define PCON_TRACE_SPAN_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "os/request_context.h"
#include "sim/time.h"
#include "util/logging.h"
#include "util/units.h"

namespace pcon {
namespace trace {

/** Span identifier; 0 means "no span". Ids are dense (1..size). */
using SpanId = std::uint64_t;

/** The null span. */
constexpr SpanId NoSpan = 0;

/** How a span came to exist (its causal edge to the parent). One
 * byte, so it packs beside Span::machine. */
enum class SpanKind : std::uint8_t
{
    /** The request itself; parentless. */
    Root,
    /** A task executing under the request on this machine. */
    Stage,
    /** A child process created by fork under the request. */
    Fork,
    /** A stage whose causal parent lives on another machine. */
    Remote,
    /** One device operation (closed at the completion interrupt). */
    Io,
};

/** Stable lower-case name of a span kind ("root", "stage", ...). */
const char *spanKindName(SpanKind kind);

/** Parse spanKindName output; panics on unknown names. */
SpanKind spanKindFromName(const std::string &name);

struct Span;

/**
 * Incremental span-stream observer (the feed behind obs::EnergyIndex).
 * A SpanCollector notifies its observer at every mutation so live
 * indices can maintain rollups in O(1) per event instead of scanning
 * the whole trace per query. Callbacks run in the middle of the
 * collector's update: implementations must not call back into the
 * collector (read the passed Span reference instead) and must be
 * cheap.
 *
 * The addSpan() reload path (JSON dumps) fires onSpanOpened with the
 * fully-formed span (its accumulated totals included) followed by
 * onSpanClosed when the span arrived closed, so an index attached
 * before a reload sees the same totals as one attached live.
 */
class SpanObserver
{
  public:
    virtual ~SpanObserver() = default;

    /** A span was opened (or reloaded via addSpan). `span.energyJ`
     * and friends may be nonzero on the reload path. */
    virtual void onSpanOpened(const Span &span) { (void)span; }

    /** A span was closed; `span.closedAt` is final. */
    virtual void onSpanClosed(const Span &span) { (void)span; }

    /** Activity was charged to a span; deltas are the increments
     * just applied (already folded into `span`). */
    virtual void
    onSpanCharged(const Span &span, util::Joules energy_delta,
                  double cpu_delta_ns)
    {
        (void)span; (void)energy_delta; (void)cpu_delta_ns;
    }
};

/**
 * One node of a request's causal span tree. `kind` and `open` share
 * the word of `machine`, which keeps a span at 128 bytes: four to a
 * 512-byte libstdc++ deque block.
 */
struct Span
{
    SpanId id = NoSpan;
    /** Parent span (NoSpan for roots). May span machines. */
    SpanId parent = NoSpan;
    /**
     * For Remote spans: the sender-side span whose segment caused
     * this one, i.e. the cross-machine flow edge (equals `parent`
     * unless re-parenting moved the span).
     */
    SpanId remoteParent = NoSpan;
    /** Request this span belongs to. */
    os::RequestId request = os::NoRequest;
    /** Machine index the span executed on. */
    int machine = 0;
    SpanKind kind = SpanKind::Stage;
    bool open = true;
    /** Stage name (task name, device name, or request type). */
    std::string name;
    sim::SimTime openedAt = 0;
    /** Close time; meaningful when !open. */
    sim::SimTime closedAt = 0;

    /** Attributed energy while this span was active. */
    util::Joules energyJ{0};
    /** Attributed on-CPU time, nanoseconds. */
    double cpuTimeNs = 0;
    /** Attributed non-halt cycles. */
    util::Cycles cycles{0};
    /** Attributed retired instructions. */
    double instructions = 0;
    /** Device bytes transferred under this span. */
    double ioBytes = 0;

    /** Wall duration (0 while open). */
    sim::SimTime duration() const { return open ? 0 : closedAt - openedAt; }

    /** Attributed energy per second of attributed on-CPU time. */
    util::Watts
    avgPowerW() const
    {
        return cpuTimeNs > 0
                   ? energyJ / util::SimSeconds(cpuTimeNs * 1e-9)
                   : util::Watts(0);
    }
};

/**
 * The span store. One collector may be shared by the SpanTracers of
 * several machines so cross-machine parent edges are ordinary span
 * ids; everything is deterministic (dense ids in open order, ordered
 * maps).
 *
 * Spans live in a std::deque: push_back never moves an existing
 * element, so a reference returned by span() stays valid for the
 * collector's lifetime.
 *
 * Per-request queries (rootOf, requestSpans, requests, requestEnergyJ,
 * machineEnergyJ, criticalPath) read one ordered entry per request —
 * its root and its span ids, ascending — so they cost O(log R) plus
 * that request's spans, never a scan of the whole store. Sums walk
 * the ids in ascending order, the same floating-point additions a
 * scan in id order performs.
 */
class SpanCollector
{
  public:
    /** Open a span; returns its id (dense, 1-based). */
    SpanId open(os::RequestId request, int machine,
                const std::string &name, SpanKind kind, SpanId parent,
                sim::SimTime now);

    /** Close a span (idempotent). */
    void close(SpanId id, sim::SimTime now);

    /**
     * Re-point a span's causal parent (fork ancestry discovered after
     * the child was scheduled; segment receipt refining a stage's
     * parent). `remote_parent` marks a cross-machine edge.
     */
    void reparent(SpanId id, SpanId parent, SpanKind kind,
                  SpanId remote_parent = NoSpan);

    /** Accumulate attributed activity into a span. */
    void charge(SpanId id, util::Joules energy, double cpu_time_ns,
                util::Cycles cycles, double instructions);

    /** Accumulate device bytes into a span. */
    void addIoBytes(SpanId id, double bytes);

    /** True when the id names a recorded span. */
    bool valid(SpanId id) const { return id >= 1 && id <= spans_.size(); }

    /** Look up a span; panics on invalid ids. Inline: tracer hooks
     * and completion sweeps call it millions of times per run. */
    const Span &
    span(SpanId id) const
    {
        util::panicIf(!valid(id), "unknown span id ", id);
        return spans_[static_cast<std::size_t>(id) - 1];
    }

    /** All spans, id order (id = index + 1); element addresses are
     * stable. */
    const std::deque<Span> &spans() const { return spans_; }

    /** Recorded span count. */
    std::size_t size() const { return spans_.size(); }

    /** Spans still open. */
    std::size_t openCount() const { return openCount_; }

    /** Root span of a request (NoSpan when never traced). */
    SpanId rootOf(os::RequestId request) const;

    /**
     * All span ids of a request, ascending. A copy of the request's
     * own index entry: O(that request's spans), whatever the number
     * of spans recorded for other requests.
     */
    std::vector<SpanId> requestSpans(os::RequestId request) const;

    /** Requests with at least one span, ascending id. */
    std::vector<os::RequestId> requests() const;

    /** Total attributed energy across a request's spans. */
    util::Joules requestEnergyJ(os::RequestId request) const;

    /** Energy of a request's spans on one machine. */
    util::Joules machineEnergyJ(os::RequestId request,
                                int machine) const;

    /** Machine indices seen across all spans, ascending. Kept up to
     * date as spans are recorded, so no call scans the spans. */
    const std::vector<int> &machines() const { return machines_; }

    /**
     * Critical path of a request: the root-to-descendant chain ending
     * at the latest-closing span (ties break to the smaller id).
     * Empty when the request was never traced.
     */
    std::vector<SpanId> criticalPath(os::RequestId request) const;

    /**
     * Append a fully-formed span (JSON reload). The span's id must be
     * size() + 1 — panics otherwise so dumps cannot go sparse.
     */
    void addSpan(const Span &span);

    /**
     * Install (or clear, with nullptr) the incremental observer. At
     * most one is active; obs::EnergyIndex owns this hook. Install
     * before spans are recorded (or rebuild the index afterwards) —
     * the observer is only told about mutations from now on.
     */
    void setObserver(SpanObserver *observer) { observer_ = observer; }

  private:
    /** One request's spans. Ids are handed out in ascending order,
     * so appending keeps `spans` sorted. */
    struct RequestEntry
    {
        SpanId root = NoSpan;
        std::vector<SpanId> spans;
    };

    Span &mutableSpan(SpanId id);
    std::size_t depth(SpanId id) const;
    /** The request's entry; nullptr when it has no span. */
    const RequestEntry *findEntry(os::RequestId request) const;
    /** Record a new span (id = size() + 1) in its request's entry
     * and its machine in machines_; panics on a second root before
     * changing anything. */
    void indexSpan(const Span &span);

    /** A deque so span addresses never move (see class doc). */
    std::deque<Span> spans_;
    std::map<os::RequestId, RequestEntry> requests_;
    /** Distinct machines of the recorded spans, ascending. */
    std::vector<int> machines_;
    std::size_t openCount_ = 0;
    /** See SpanObserver's contract. */
    SpanObserver *observer_ = nullptr;
};

} // namespace trace
} // namespace pcon

#endif // PCON_TRACE_SPAN_H
