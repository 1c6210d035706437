/**
 * @file
 * Kernel instrumentation points. The power-container facility (core/)
 * implements these to sample counters at request context switches,
 * handle periodic sampling interrupts, and attribute I/O energy —
 * mirroring where the paper hooks Linux.
 */

#ifndef PCON_OS_HOOKS_H
#define PCON_OS_HOOKS_H

#include <cstddef>

#include "hw/machine.h"
#include "os/request_context.h"
#include "sim/time.h"

namespace pcon {
namespace os {

class Task;
struct Segment;

/**
 * The KernelHooks callbacks, in declaration order: the kinds the
 * kernel counts and times at dispatch (Kernel::hookCalls,
 * Kernel::timeHooks).
 */
enum class Hook
{
    ContextSwitch,
    ContextRebind,
    SamplingInterrupt,
    IoComplete,
    TaskExit,
    Fork,
    SegmentReceived,
    Actuation,
};

/** Number of Hook kinds. */
inline constexpr std::size_t NumHooks =
    static_cast<std::size_t>(Hook::Actuation) + 1;

/**
 * Callbacks invoked by the kernel at accounting-relevant moments.
 * Multiple hook sets may be registered; they run in registration
 * order. Implementations may call back into the kernel (e.g. to set
 * duty-cycle levels) except where noted.
 */
class KernelHooks
{
  public:
    virtual ~KernelHooks() = default;

    /**
     * A core is switching tasks. Called before any machine state
     * changes, so counters read here cover the outgoing interval.
     * @param core The core switching.
     * @param prev Outgoing task (nullptr = was idle).
     * @param next Incoming task (nullptr = going idle).
     */
    virtual void
    onContextSwitch(int core, Task *prev, Task *next)
    {
        (void)core; (void)prev; (void)next;
    }

    /**
     * A task's bound request context changed (e.g. it read socket
     * data tagged with a different request). If the task is running,
     * this is an accounting boundary on its core.
     */
    virtual void
    onContextRebind(Task &task, RequestId old_ctx, RequestId new_ctx)
    {
        (void)task; (void)old_ctx; (void)new_ctx;
    }

    /**
     * Periodic counter-overflow interrupt on a busy core (threshold
     * of non-halt cycles reached; suppressed while idle).
     */
    virtual void
    onSamplingInterrupt(int core)
    {
        (void)core;
    }

    /**
     * A device I/O completed. The kernel identifies the responsible
     * request as the one bound to the consuming task (Section 3.3).
     * @param device Which device class.
     * @param context Request the I/O belongs to.
     * @param busy_time Device service time attributable to the op.
     * @param bytes Transferred bytes.
     */
    virtual void
    onIoComplete(hw::DeviceKind device, RequestId context,
                 sim::SimTime busy_time, double bytes)
    {
        (void)device; (void)context; (void)busy_time; (void)bytes;
    }

    /** A task exited. */
    virtual void
    onTaskExit(Task &task)
    {
        (void)task;
    }

    /**
     * A task forked a child (the child inherits the parent's request
     * context). Fired after the child is runnable — the child may
     * already have been switched onto an idle core, so an
     * onContextSwitch for it can precede this callback. Span tracing
     * uses this to parent the child's spans under the forking stage.
     */
    virtual void
    onFork(Task &parent, Task &child)
    {
        (void)parent; (void)child;
    }

    /**
     * A task's pending receive completed: `segment` is the merged
     * contiguous same-context data it consumed, including the
     * sender's piggybacked RequestStatsTag (Section 3.4). Fired after
     * the reader was rebound to the segment's context, so span
     * tracing can stitch the receive to the sending side's span.
     */
    virtual void
    onSegmentReceived(Task &task, const Segment &segment)
    {
        (void)task; (void)segment;
    }

    /**
     * A core's power actuators were written: the duty-cycle level
     * and/or P-state changed (per-request policy application at a
     * context switch, or an explicit kernel actuation). Both current
     * values are reported. Observability hook: implementations must
     * not actuate from inside it (setDutyLevel/setPState re-enter).
     */
    virtual void
    onActuation(int core, int duty_level, int pstate)
    {
        (void)core; (void)duty_level; (void)pstate;
    }
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_HOOKS_H
