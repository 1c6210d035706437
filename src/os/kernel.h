/**
 * @file
 * The simulated operating system kernel: per-core scheduling with
 * timeslice preemption, request-context propagation over sockets,
 * fork and IPC, counter-overflow sampling interrupts, device queues,
 * and duty-cycle control — the substrate the power-container facility
 * instruments (Section 3.3).
 */

#ifndef PCON_OS_KERNEL_H
#define PCON_OS_KERNEL_H

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hw/machine.h"
#include "os/device.h"
#include "os/hooks.h"
#include "os/request_context.h"
#include "os/socket.h"
#include "os/task.h"
#include "sim/simulation.h"

namespace pcon {
namespace os {

/** Tunable kernel behaviour. */
struct KernelConfig
{
    /** Round-robin preemption quantum. */
    sim::SimTime timeslice = sim::msec(1);
    /**
     * Non-halt cycles between sampling interrupts; <= 0 selects the
     * default of ~1 ms worth of cycles at the machine's frequency.
     * Interrupts are suppressed while a core idles (Section 3.1).
     */
    double samplingPeriodCycles = 0;
    /**
     * Per-segment socket context tags (the paper's design). False
     * selects the naive socket-inherits-last-tag behaviour that
     * mis-attributes on persistent connections — ablation only.
     */
    bool perSegmentSocketTagging = true;
    /**
     * Trap user-level request stage transfers (UserSwitchOp) and
     * rebind the task's context — the paper's deferred future-work
     * mechanism for event-driven servers. False models the paper's
     * published system, which cannot see user-level transfers.
     */
    bool trapUserLevelSwitches = true;
    /** Disk device characteristics. */
    DeviceConfig disk{100e6, sim::usec(500)};
    /** NIC characteristics. */
    DeviceConfig net{1e9, sim::usec(50)};
};

/**
 * One machine's operating system. Owns tasks and sockets; drives the
 * hw::Machine; multiplexes the per-core sampling timers; invokes
 * KernelHooks at accounting boundaries.
 */
class Kernel
{
  public:
    /**
     * @param machine Hardware to manage.
     * @param requests Shared request-context identity manager (can
     *        span machines in a cluster).
     * @param cfg Kernel tunables.
     */
    Kernel(hw::Machine &machine, RequestContextManager &requests,
           const KernelConfig &cfg = {});

    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Register instrumentation callbacks (called in order). Sampling
     * interrupts are armed only while a hook set is registered: the
     * first one arms them on every busy core, each a full period of
     * non-halt cycles away, like a counter overflow programmed then.
     */
    void addHooks(KernelHooks *hooks);

    /**
     * Dispatches of one hook kind so far: one per event, however many
     * hook sets are registered (none included), except that
     * SamplingInterrupt counts only interrupts delivered while some
     * hook set was registered. A pure function of the simulated
     * workload and of when the first hook set was registered.
     */
    std::uint64_t hookCalls(Hook kind) const;

    /**
     * Receives the host time of one hook set's call: the hook kind,
     * the set's index in registration order, host nanoseconds.
     */
    using HookTimer = std::function<void(
        Hook kind, std::size_t hook_set, std::int64_t host_ns)>;

    /**
     * Time every hook set's call with the host's monotonic clock and
     * report it to `timer`, once per (dispatch, hook set) in
     * registration order; an empty function stops timing. Host time
     * never reaches simulation state, and the clock is read only
     * while a timer is installed.
     */
    void timeHooks(HookTimer timer);

    /**
     * Install the per-request duty-cycle policy consulted when a core
     * switches to a task: returns the duty level (1..denom) for the
     * incoming task. Power conditioning (Section 3.4) installs this.
     */
    void setDutyPolicy(std::function<int(const Task &)> policy);

    /**
     * Install the per-request DVFS policy consulted when a core
     * switches to a task: returns the P-state index for the incoming
     * task (the alternative actuator to duty-cycle modulation).
     */
    void setPStatePolicy(std::function<int(const Task &)> policy);

    /**
     * Install the provider of per-request statistics piggybacked on
     * outgoing socket messages (Section 3.4's cross-machine tags).
     * The container manager installs this; messages from requests it
     * knows then carry cumulative runtime/energy/power.
     */
    void setStatsProvider(
        std::function<RequestStatsTag(RequestId)> provider);

    /** The stats tag for a context (empty tag without a provider). */
    RequestStatsTag statsFor(RequestId context) const;

    /**
     * Install the provider of the current causal span id for a
     * context (trace::SpanTracer installs this). The id is stamped
     * into every outgoing segment's RequestStatsTag so receivers can
     * stitch child spans across machines; 0 means "no span".
     */
    void setSpanProvider(
        std::function<std::uint64_t(RequestId)> provider);

    /** Current span id for a context (0 without a provider). */
    std::uint64_t spanFor(RequestId context) const;

    /**
     * Install (or clear, with nullptr) the outbound segment
     * perturber (fault injection: loss, duplication, reordering,
     * stale stats tags). Consulted by Socket::send on every segment
     * any socket of this kernel sends.
     */
    void setSegmentPerturber(SegmentPerturber fn);

    /**
     * Create a task.
     * @param logic Behaviour.
     * @param name Debug name.
     * @param context Initial request-context binding.
     * @param affinity Pinned core, or -1 for any.
     * @return The new task's id.
     */
    TaskId spawn(std::shared_ptr<TaskLogic> logic,
                 const std::string &name,
                 RequestId context = NoRequest, int affinity = -1);

    /** Rebind a task's request context (fires onContextRebind). */
    void bindContext(TaskId task, RequestId context);

    /** Look up a live or zombie task; nullptr when unknown. */
    Task *findTask(TaskId id);

    /**
     * Forcibly terminate a task in any state: descheduled if
     * running, removed from run queues if ready, detached from
     * socket/timer/device waits if blocked. A parent waiting on the
     * task is woken with ChildExited. In-flight device operations
     * complete physically but no longer wake anyone.
     * @return true when a live task was terminated.
     */
    bool kill(TaskId id);

    /** Task currently on a core; nullptr when the core idles. */
    Task *runningTask(int core);

    /** Create a connected socket pair on this machine. */
    std::pair<Socket *, Socket *> socketPair();

    /**
     * Create a socket pair spanning two kernels (machines) with the
     * given one-way latency. first lives on a, second on b.
     */
    static std::pair<Socket *, Socket *>
    connect(Kernel &a, Kernel &b, sim::SimTime latency);

    /**
     * Set a core's duty-cycle level, resynchronizing in-flight
     * compute and sampler deadlines to the new rate.
     */
    void setDutyLevel(int core, int level);

    /**
     * Set a core's DVFS operating point (alternative actuator to
     * duty-cycle modulation), resynchronizing in-flight deadlines.
     */
    void setPState(int core, int pstate);

    /** Managed machine. */
    hw::Machine &machine() { return machine_; }

    /** Event loop. */
    sim::Simulation &simulation() { return machine_.simulation(); }

    /** Request-context identity manager. */
    RequestContextManager &requests() { return requests_; }

    /** Kernel configuration (immutable after construction). */
    const KernelConfig &config() const { return cfg_; }

    /** Cumulative busy time of a device class (OS bookkeeping). */
    sim::SimTime deviceBusyTime(hw::DeviceKind kind) const;

    /** Cumulative bytes a device class completed (OS bookkeeping). */
    std::uint64_t deviceBytes(hw::DeviceKind kind) const;

    /** Ready + running tasks on a core (load metric). */
    std::size_t coreLoad(int core) const;

    /** Ready + running tasks across all cores. */
    std::size_t totalLoad() const;

    /** Number of live (not exited) tasks. */
    std::size_t liveTaskCount() const;

    /** Ids of live tasks, ascending (deterministic enumeration). */
    std::vector<TaskId> liveTaskIds() const;

    /** Drop records of exited tasks nobody waits for. */
    void reapExited();

  private:
    friend class Socket;

    struct CoreState
    {
        Task *current = nullptr;
        std::deque<Task *> runQueue;

        sim::EventId computeEvent = sim::InvalidEventId;
        sim::SimTime computeArmedAt = 0;
        double computeRateHz = 0;

        sim::EventId sliceEvent = sim::InvalidEventId;

        sim::EventId samplerEvent = sim::InvalidEventId;
        sim::SimTime samplerArmedAt = 0;
        double samplerRateHz = 0;
        double samplerRemainingCycles = 0;
    };

    // --- scheduling ---
    void makeReady(Task *task);
    int pickCore(const Task &task) const;
    void enqueue(int core, Task *task);
    void scheduleCore(int core);
    void switchTo(int core, Task *next);
    void deschedule(int core);
    void preempt(int core);

    // --- op execution ---
    void resumeLogic(Task *task);
    bool applyOp(Task *task, Op op);
    void startCompute(Task *task, const ComputeOp &op);
    void finishCompute(int core);
    void doSend(Task *task, const SendOp &op);
    bool tryRecv(Task *task, const RecvOp &op);
    void doFork(Task *task, const ForkOp &op);
    bool tryWaitChild(Task *task, const WaitChildOp &op);
    void doSleep(Task *task, const SleepOp &op);
    void doIo(Task *task, const IoOp &op);
    void exitTask(Task *task);
    void blockCurrent(Task *task);

    // --- timers ---
    void armCompute(int core);
    void disarmCompute(int core);
    void armSlice(int core);
    void disarmSlice(int core);
    void armSampler(int core);
    void disarmSampler(int core);
    void samplerFired(int core);

    // --- sockets ---
    void completePendingRecv(Socket *socket);
    Segment consumeReadable(Socket *socket);
    void rebind(Task *task, RequestId new_ctx);

    void ioCompleted(hw::DeviceKind kind, Task *task, double bytes,
                     sim::SimTime busy);

    /** Count one `kind` event and call `call(hooks)` on every set. */
    template <typename F> void dispatch(Hook kind, F &&call);

    hw::Machine &machine_;
    RequestContextManager &requests_;
    KernelConfig cfg_;
    std::vector<KernelHooks *> hooks_;
    std::array<std::uint64_t, NumHooks> hookCalls_{};
    HookTimer hookTimer_;
    std::function<int(const Task &)> dutyPolicy_;
    std::function<int(const Task &)> pstatePolicy_;
    std::function<RequestStatsTag(RequestId)> statsProvider_;
    std::function<std::uint64_t(RequestId)> spanProvider_;
    SegmentPerturber segmentPerturber_;

    std::unordered_map<TaskId, std::unique_ptr<Task>> tasks_;
    TaskId nextTaskId_ = 1;
    std::vector<CoreState> cores_;
    std::vector<int> placementOrder_;
    std::vector<std::unique_ptr<Socket>> sockets_;
    IoDevice disk_;
    IoDevice net_;

    /** Cap on consecutive zero-time ops before declaring livelock. */
    static constexpr int maxInstantOps_ = 100000;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_KERNEL_H
