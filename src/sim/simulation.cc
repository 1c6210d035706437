#include "simulation.h"

#include <utility>

#include "util/audit.h"
#include "util/logging.h"

namespace pcon {
namespace sim {

EventId
Simulation::schedule(SimTime delay, EventQueue::Callback cb)
{
    PCON_AUDIT(std::this_thread::get_id() == owner_);
    util::panicIf(delay < 0, "negative event delay: ", delay);
    return events_.schedule(now_ + delay, std::move(cb));
}

EventId
Simulation::scheduleAt(SimTime when, EventQueue::Callback cb)
{
    PCON_AUDIT(std::this_thread::get_id() == owner_);
    util::panicIf(when < now_, "event scheduled in the past: ", when,
                  " < ", now_);
    return events_.schedule(when, std::move(cb));
}

bool
Simulation::cancel(EventId id)
{
    PCON_AUDIT(std::this_thread::get_id() == owner_);
    return events_.cancel(id);
}

std::uint64_t
Simulation::run(SimTime until)
{
    PCON_AUDIT(std::this_thread::get_id() == owner_);
    std::uint64_t executed = 0;
    // Fused pop: one queue operation per event instead of the
    // empty/nextTime/pop triple.
    while (auto due = events_.popDue(until)) {
        auto &[when, cb] = *due;
        util::panicIf(when < now_, "event queue went backwards");
        now_ = when;
        cb();
        ++executed;
        ++eventsExecuted_;
        if (!auditors_.empty())
            maybeAudit();
    }
    // Advance the clock to the horizon so back-to-back run() calls
    // observe contiguous time even across empty stretches.
    if (until != std::numeric_limits<SimTime>::max() && now_ < until)
        now_ = until;
    // Close the run with a final sweep so violations in the tail
    // (after the last cadence boundary) still surface in this call.
    if (executed > 0)
        for (AuditorEntry &entry : auditors_)
            entry.auditor->audit(now_);
    return executed;
}

bool
Simulation::step()
{
    PCON_AUDIT(std::this_thread::get_id() == owner_);
    auto due =
        events_.popDue(std::numeric_limits<SimTime>::max());
    if (!due)
        return false;
    auto &[when, cb] = *due;
    now_ = when;
    cb();
    ++eventsExecuted_;
    if (!auditors_.empty())
        maybeAudit();
    return true;
}

void
Simulation::addAuditor(Auditor *auditor, std::uint64_t every_events)
{
    util::fatalIf(auditor == nullptr, "addAuditor(nullptr)");
    util::fatalIf(every_events == 0, "auditor cadence must be >= 1");
    for (const AuditorEntry &entry : auditors_)
        util::fatalIf(entry.auditor == auditor,
                      "auditor registered twice");
    auditors_.push_back(
        AuditorEntry{auditor, every_events,
                     eventsExecuted_ + every_events});
}

bool
Simulation::removeAuditor(Auditor *auditor)
{
    for (auto it = auditors_.begin(); it != auditors_.end(); ++it) {
        if (it->auditor == auditor) {
            auditors_.erase(it);
            return true;
        }
    }
    return false;
}

void
Simulation::maybeAudit()
{
    for (AuditorEntry &entry : auditors_) {
        if (eventsExecuted_ >= entry.nextDue) {
            entry.auditor->audit(now_);
            entry.nextDue = eventsExecuted_ + entry.every;
        }
    }
}

} // namespace sim
} // namespace pcon
