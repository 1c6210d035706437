#include "event_queue.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace pcon {
namespace sim {

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Node &n = nodes_[slot];
    n.cb = nullptr; // drop the closure eagerly
    ++n.gen;        // invalidates the handle and the heap entry
    freeSlots_.push_back(slot);
}

void
EventQueue::pruneTop()
{
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

EventId
EventQueue::schedule(SimTime when, Callback cb)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        util::panicIf(nodes_.size() >=
                          std::numeric_limits<std::uint32_t>::max() - 1,
                      "event queue slot space exhausted");
        slot = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &n = nodes_[slot];
    n.cb = std::move(cb);
    heap_.push_back(Entry{when, nextSeq_++, slot, n.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return (static_cast<EventId>(n.gen) << 32) |
        static_cast<EventId>(slot + 1);
}

bool
EventQueue::cancel(EventId id)
{
    std::uint64_t low = id & 0xffffffffULL;
    if (low == 0 || low > nodes_.size())
        return false;
    std::uint32_t slot = static_cast<std::uint32_t>(low - 1);
    if (nodes_[slot].gen != static_cast<std::uint32_t>(id >> 32))
        return false; // already fired, cancelled, or recycled
    releaseSlot(slot);
    --live_;
    if (heap_.size() > 2 * live_) {
        // Stale entries outnumber live ones: drop them all at once.
        heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                                   [this](const Entry &e) {
                                       return stale(e);
                                   }),
                    heap_.end());
        std::make_heap(heap_.begin(), heap_.end(), Later{});
    } else {
        pruneTop();
    }
    return true;
}

SimTime
EventQueue::nextTime() const
{
    util::panicIf(live_ == 0, "nextTime on empty event queue");
    return heap_.front().when;
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::popTop()
{
    Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Callback cb = std::move(nodes_[top.slot].cb);
    releaseSlot(top.slot);
    --live_;
    pruneTop();
    return {top.when, std::move(cb)};
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::pop()
{
    util::panicIf(live_ == 0, "pop on empty event queue");
    return popTop();
}

std::optional<std::pair<SimTime, EventQueue::Callback>>
EventQueue::popDue(SimTime until)
{
    if (live_ == 0 || heap_.front().when > until)
        return std::nullopt;
    return popTop();
}

} // namespace sim
} // namespace pcon
