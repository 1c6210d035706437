/**
 * @file
 * The simulation driver: a clock plus an event queue. All simulated
 * components schedule work against one Simulation instance.
 */

#ifndef PCON_SIM_SIMULATION_H
#define PCON_SIM_SIMULATION_H

#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace pcon {
namespace sim {

/**
 * A pluggable cross-module invariant checker. Implementations verify
 * physical contracts (energy conservation, monotonicity, actuator
 * bounds) and panic() on violation; the simulation invokes them at a
 * configurable event cadence so violations surface near their cause
 * instead of at end-of-run assertions.
 */
class Auditor
{
  public:
    virtual ~Auditor() = default;

    /** Check all invariants at the current simulated time. */
    virtual void audit(SimTime now) = 0;
};

/**
 * Owns the simulated clock and event queue and runs events in time
 * order. Single-threaded by contract (DESIGN.md §2b): the whole
 * machine cluster is one deterministic event stream, driven by the
 * thread that constructed the Simulation. schedule(), scheduleAt(),
 * cancel(), run() and step() check that thread with PCON_AUDIT.
 */
class Simulation
{
  public:
    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule a callback `delay` after now; delay must be >= 0. */
    EventId schedule(SimTime delay, EventQueue::Callback cb);

    /** Schedule a callback at an absolute time >= now. */
    EventId scheduleAt(SimTime when, EventQueue::Callback cb);

    /** Cancel a pending event by id. */
    bool cancel(EventId id);

    /**
     * Run until the queue drains or the clock would pass `until`.
     * Events scheduled exactly at `until` are executed.
     * @return number of events executed.
     */
    std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

    /** Execute exactly one event if present. @return true if one ran. */
    bool step();

    /** True when no events are pending. */
    bool idle() const { return events_.empty(); }

    /** Number of pending events. */
    std::size_t pendingEvents() const { return events_.size(); }

    /**
     * Register an invariant auditor, invoked after every
     * `every_events` executed events (and once when the run loop
     * drains). Auditors run in registration order. The caller keeps
     * ownership and must removeAuditor() before destroying it.
     */
    void addAuditor(Auditor *auditor, std::uint64_t every_events = 4096);

    /** Deregister an auditor. @return true when it was registered. */
    bool removeAuditor(Auditor *auditor);

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

  private:
    struct AuditorEntry
    {
        Auditor *auditor;
        std::uint64_t every;
        std::uint64_t nextDue;
    };

    /** Run every auditor whose event cadence has elapsed. */
    void maybeAudit();

    SimTime now_ = 0;
    EventQueue events_;
    /** The constructing thread; present at every audit level so the
     *  layout does not depend on PCON_AUDIT_LEVEL. */
    // pcon-lint: allow(concurrency-primitives) the owner-thread check of the single-threaded contract
    std::thread::id owner_ = std::this_thread::get_id();
    std::uint64_t eventsExecuted_ = 0;
    std::vector<AuditorEntry> auditors_;
};

} // namespace sim
} // namespace pcon

#endif // PCON_SIM_SIMULATION_H
