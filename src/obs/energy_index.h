/**
 * @file
 * Incremental energy-query indices — the live half of the trace
 * analysis that used to run only at exit. An EnergyIndex subscribes
 * to a trace::SpanCollector as its SpanObserver and folds every
 * open/charge/close into per-request and per-machine rollups, a
 * ranking ordered by attributed energy, and quota-headroom views, so
 * a query costs about its answer at any simulated time (plus, for a
 * ranking query, re-ranking the requests charged since the last one)
 * instead of O(trace) after the run. tools/trace_report is a thin CLI
 * over this library (obs/report.h); the same index answers the same
 * questions online.
 *
 * Rebuild parity: attach() absorbs already-recorded spans in id
 * order, which performs the exact floating-point additions the
 * collector's own per-request queries perform (ascending span id) —
 * so a report rendered over a freshly attached index is
 * byte-identical to one computed from the collector directly (pinned
 * by the golden fixtures).
 */

#ifndef PCON_OBS_ENERGY_INDEX_H
#define PCON_OBS_ENERGY_INDEX_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "os/request_context.h"
#include "sim/time.h"
#include "trace/span.h"
#include "util/units.h"

namespace pcon {
namespace obs {

/** Per-request rollup snapshot (values at query time). */
struct RequestRollup
{
    os::RequestId id = os::NoRequest;
    /** Root span name; "?" until a root span is recorded. */
    std::string rootName = "?";
    /** Spans recorded for the request (open + closed). */
    std::size_t spanCount = 0;
    /** Spans still open. */
    std::size_t openSpans = 0;
    /** Total attributed energy. */
    util::Joules energyJ{0};
    /** Total attributed on-CPU time, nanoseconds. */
    double cpuTimeNs = 0;
    /** Distinct machines the request's spans executed on. */
    std::size_t machineCount = 0;
    /** First-open to last-close envelope over closed spans. */
    sim::SimTime wall = 0;
};

/** One row of the quota-headroom view. */
struct QuotaHeadroom
{
    os::RequestId id = os::NoRequest;
    /** Request type (root span name). */
    std::string type;
    util::Joules usedJ{0};
    /** Budget applied (<= 0 means unlimited). */
    util::Joules budgetJ{0};
    /** budget - used; 0 when unlimited. */
    util::Joules headroomJ{0};
    bool overBudget = false;
};

/**
 * The incremental index. Attach to one collector (live tracing or a
 * reloaded dump); every query then reads maintained rollups. With R
 * requests seen, a charge or a close reaches its request's rollup
 * through a table indexed by span id: O(1). Opening a span finds
 * the rollup in the ordered request map, O(log R), and enters it in
 * that table. A charge does not re-sort: it only notes that the
 * request's energy moved. ranked() and topRequests() first re-rank
 * the requests noted since the last ranking query, each from its
 * stored ranking position, so they cost O(changed requests × log R
 * + answer) and return exactly the order eager re-ranking would.
 * The index never calls back into the collector from an observer
 * callback.
 */
class EnergyIndex : public trace::SpanObserver
{
  public:
    EnergyIndex() = default;
    ~EnergyIndex() override;

    EnergyIndex(const EnergyIndex &) = delete;
    EnergyIndex &operator=(const EnergyIndex &) = delete;

    /**
     * Subscribe to `collector` and absorb its already-recorded spans
     * (id order — see the rebuild-parity note above). Detaches from
     * any previous collector first.
     */
    void attach(trace::SpanCollector &collector);

    /** Unsubscribe and drop all rollups. */
    void detach();

    /** The attached collector (nullptr when detached). Span detail
     * queries (stage fields, critical paths) read through it. */
    const trace::SpanCollector *collector() const { return collector_; }

    // --- queries (O(answer), plus an O(log R) request lookup) ------

    /** Requests with at least one span, ascending id. */
    std::vector<os::RequestId> requests() const;

    /** Requests ranked by energy desc, ties to the smaller id. */
    std::vector<os::RequestId> ranked() const;

    /** First `n` of ranked(). */
    std::vector<os::RequestId> topRequests(std::size_t n) const;

    /** True when the request has at least one span. */
    bool known(os::RequestId request) const;

    /** Full rollup of one request (zeros when unknown). */
    RequestRollup rollup(os::RequestId request) const;

    /** Total attributed energy of a request. */
    util::Joules requestEnergyJ(os::RequestId request) const;

    /** Energy over attributed on-CPU time (0 before any CPU time). */
    util::Watts requestAvgPowerW(os::RequestId request) const;

    /** Span ids of a request, ascending: the attached collector's
     * per-request entry (empty when detached). */
    std::vector<trace::SpanId> requestSpans(os::RequestId request) const;

    /** Root span name ("?" when the request has no root span). */
    std::string rootName(os::RequestId request) const;

    /** Energy of a request's spans on one machine. */
    util::Joules machineEnergyJ(os::RequestId request,
                                int machine) const;

    /** Machine indices seen across all spans, ascending. */
    std::vector<int> machines() const;

    /** Total attributed energy on one machine (all requests). */
    util::Joules machineTotalEnergyJ(int machine) const;

    /** Total attributed energy across every span. */
    util::Joules totalEnergyJ() const { return totalEnergyJ_; }

    /** Spans indexed so far. */
    std::size_t spanCount() const { return spanCount_; }

    /** Spans currently open. */
    std::size_t openSpanCount() const { return openSpans_; }

    /**
     * Energy-quota headroom of every known request, ascending id:
     * each request's attributed energy against its type's budget
     * (`budget_j_by_type`, falling back to `default_budget_j`;
     * <= 0 means unlimited). O(requests) — the "who is close to the
     * cap" view a conditioning policy polls online.
     */
    std::vector<QuotaHeadroom>
    quotaHeadroom(const std::map<std::string, double> &budget_j_by_type,
                  double default_budget_j = 0) const;

    // --- trace::SpanObserver ---------------------------------------
    void onSpanOpened(const trace::Span &span) override;
    void onSpanClosed(const trace::Span &span) override;
    void onSpanCharged(const trace::Span &span,
                       util::Joules energy_delta,
                       double cpu_delta_ns) override;

  private:
    /** Ranking key: energy desc, id asc. */
    struct RankKey
    {
        util::Joules energyJ{0};
        os::RequestId id = os::NoRequest;

        bool
        operator<(const RankKey &other) const
        {
            if (energyJ != other.energyJ)
                return energyJ > other.energyJ;
            return id < other.id;
        }
    };

    struct PerRequest
    {
        std::string rootName = "?";
        /** Spans recorded; their ids live in the collector's entry. */
        std::size_t spanCount = 0;
        std::size_t open = 0;
        util::Joules energyJ{0};
        double cpuTimeNs = 0;
        /** (machine, energy), sorted by machine; small in practice. */
        std::vector<std::pair<int, util::Joules>> machineEnergy;
        bool anyClosed = false;
        /** Queued in unranked_. */
        mutable bool unranked = false;
        sim::SimTime firstOpen = 0;
        sim::SimTime lastClose = 0;
        /** This request's ranking_ key. Its energy lags energyJ
         * until the next ranking query (rankChanged). */
        mutable std::set<RankKey>::iterator rankPos;
    };

    PerRequest &entryFor(os::RequestId request);
    const PerRequest *find(os::RequestId request) const;
    /** Queue the request for re-ranking once its energy leaves its
     * ranking key's. */
    void markUnranked(PerRequest &entry);
    /** Move each queued request's ranking_ key to its energy now. */
    void rankChanged() const;
    void absorbOpen(const trace::Span &span);
    void absorbClose(const trace::Span &span);

    trace::SpanCollector *collector_ = nullptr;
    /** Ordered: requests() and quotaHeadroom() list it in id order.
     * Map nodes never move, so the pointers below stay valid. */
    std::map<os::RequestId, PerRequest> requests_;
    /** The request rollup of each span, indexed by span id - 1: the
     * collector's ids are dense, so charges and closes need no
     * search. Filled by absorbOpen. */
    std::vector<PerRequest *> spanEntries_;
    /** One key per request (ordered: ranked() reads it in order). */
    mutable std::set<RankKey> ranking_;
    /** Requests whose energy moved since the last ranking query. */
    mutable std::vector<PerRequest *> unranked_;
    std::map<int, util::Joules> machineEnergy_;
    util::Joules totalEnergyJ_{0};
    std::size_t spanCount_ = 0;
    std::size_t openSpans_ = 0;
};

} // namespace obs
} // namespace pcon

#endif // PCON_OBS_ENERGY_INDEX_H
