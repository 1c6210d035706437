/**
 * @file
 * The discrete-event core: a time-ordered queue of callbacks with
 * stable FIFO ordering among same-time events and O(1) cancel
 * support via generation-checked event handles.
 *
 * Structure: one binary min-heap of (when, seq, slot, gen) entries
 * in a std::vector. seq is handed out monotonically, so (when, seq)
 * is a total order and every pop is determined by it alone, not by
 * the heap's shape. The workloads keep a few dozen events pending
 * (docs/PERFORMANCE.md), where a plain heap is as fast as any
 * bucketed structure.
 *
 * Callbacks live in a flat slot vector recycled through an index
 * free list; EventId packs (generation << 32 | slot), so cancel() is
 * an O(1) exact test: it returns true iff the event is still
 * pending, and cancelling an already-fired or already-cancelled id
 * is a clean false. A cancelled event's heap entry goes stale (its
 * generation no longer matches the slot's) and is dropped when it
 * reaches the top; a cancel that leaves stale entries outnumbering
 * live ones compacts the heap, so cancelled events cannot pile up.
 *
 * Not thread-safe: the queue belongs to one sim::Simulation, which
 * is single-threaded by contract (DESIGN.md §2b).
 */

#ifndef PCON_SIM_EVENT_QUEUE_H
#define PCON_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/inline_fn.h"

namespace pcon {
namespace sim {

/** Opaque identifier for a scheduled event; used for cancellation. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId InvalidEventId = 0;

/**
 * A min-heap of (time, sequence, callback) entries. Events at equal
 * times fire in scheduling order. Cancellation is exact and O(1) via
 * generation-checked handles.
 */
class EventQueue
{
  public:
    /**
     * Move-only small-buffer closure (32 inline bytes): the kernel's
     * hot closures ([this, core] and friends) move as a memcpy with
     * no allocation and no indirect manager calls; bigger captures
     * fall back to one heap cell. See util/inline_fn.h.
     */
    using Callback = util::InlineFunction<void(), 32>;

    /** Schedule a callback at absolute time `when`. */
    EventId schedule(SimTime when, Callback cb);

    /**
     * Cancel a previously scheduled event.
     * @return true when the event was pending and is now cancelled;
     *         false for unknown, already-fired, or already-cancelled
     *         ids.
     */
    bool cancel(EventId id);

    /** True when no live events remain. O(1). */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) pending events. O(1). */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event; panics when empty. */
    SimTime nextTime() const;

    /**
     * Pop and return the earliest live event; panics when empty.
     * @return pair of fire time and callback.
     */
    std::pair<SimTime, Callback> pop();

    /**
     * Fused empty/nextTime/pop for the simulation run loop: pop the
     * earliest live event iff its time is <= `until`.
     * @return nullopt when the queue is empty or the head is later
     *         than `until`.
     */
    std::optional<std::pair<SimTime, Callback>> popDue(SimTime until);

  private:
    /** Pooled callback; the slot index never moves. */
    struct Node
    {
        Callback cb;
        /** Bumped on fire/cancel so stale handles and heap entries
         *  are detected exactly. */
        std::uint32_t gen = 1;
    };

    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * Min-heap comparator: true when `a` fires after `b`. A functor
     * (not a function pointer) so std::push_heap/pop_heap inline the
     * comparison.
     */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool stale(const Entry &e) const { return nodes_[e.slot].gen != e.gen; }
    void releaseSlot(std::uint32_t slot);
    /** Drop stale entries off the top, so the top is live whenever
     *  live_ > 0. */
    void pruneTop();
    std::pair<SimTime, Callback> popTop();

    /** Slot-indexed callbacks, recycled via freeSlots_. Addressed by
     *  index only, so reallocation is safe (Callback moves are a
     *  flat memcpy). */
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> freeSlots_;
    /** Min-heap in Later order; its top is live (see pruneTop). */
    std::vector<Entry> heap_;
    std::size_t live_ = 0;
    std::uint64_t nextSeq_ = 1;
};

} // namespace sim
} // namespace pcon

#endif // PCON_SIM_EVENT_QUEUE_H
