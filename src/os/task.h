/**
 * @file
 * Task (process/thread) model. Task behaviour is a pull-based state
 * machine: the kernel asks the task's TaskLogic for its next
 * operation each time the previous one completes, passing the result
 * of the completed operation. This lets multi-stage server programs
 * (Figure 4's httpd -> MySQL -> shell -> latex -> dvipng chain) be
 * expressed without coroutines while the kernel retains full control
 * of blocking and scheduling.
 */

#ifndef PCON_OS_TASK_H
#define PCON_OS_TASK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "hw/activity.h"
#include "hw/machine.h"
#include "os/request_context.h"
#include "sim/time.h"

namespace pcon {
namespace os {

class Kernel;
class Socket;
class Task;

/** Task identifier; 0 is invalid. */
using TaskId = std::uint64_t;

/** The invalid task id. */
constexpr TaskId NoTask = 0;

/** Execute on-CPU work with the given signature for `cycles` cycles. */
struct ComputeOp
{
    hw::ActivityVector activity;
    double cycles;
};

/** Block off-CPU for a fixed duration (timers, think time). */
struct SleepOp
{
    sim::SimTime duration;
};

/**
 * Send bytes on a socket. The message is tagged with the sender's
 * current request context (the TCP-option tag of Section 3.3).
 */
struct SendOp
{
    Socket *socket;
    double bytes;
};

/**
 * Receive from a socket; blocks until data arrives. Reads only the
 * contiguous prefix of buffered segments that share one context tag,
 * and rebinds the reader to that context.
 */
struct RecvOp
{
    Socket *socket;
};

/** Fork a child process running `childLogic`; inherits the context. */
struct ForkOp
{
    std::shared_ptr<class TaskLogic> childLogic;
    std::string name;
};

/** Block until the given child exits (wait4-style). */
struct WaitChildOp
{
    TaskId child;
};

/** Submit a device I/O and block until its completion interrupt. */
struct IoOp
{
    hw::DeviceKind device;
    double bytes;
};

/**
 * A *user-level* request stage transfer: an event-driven server (or
 * user-level thread library) resumes a different request's
 * continuation by touching its run-queue/sync structures, with no
 * system call. The paper notes such transfers are invisible to
 * OS-only tracking, and defers the fix — trapping accesses to the
 * critical synchronization structures (Whodunit-style) — to future
 * work (Section 3.3). This op models the access: when the kernel's
 * trapUserLevelSwitches knob is on, the trap fires and the task's
 * context is rebound; when off, the kernel misses the transfer and
 * keeps charging the previous request.
 */
struct UserSwitchOp
{
    /** The request whose continuation the application resumes. */
    RequestId context;
};

/** Terminate the task. */
struct ExitOp
{};

/** Any operation a task can request from the kernel. */
using Op = std::variant<ComputeOp, SleepOp, SendOp, RecvOp, ForkOp,
                        WaitChildOp, IoOp, UserSwitchOp, ExitOp>;

/** Result of the most recently completed operation. */
struct OpResult
{
    enum class Kind {
        /** First call: the task just started. */
        Started,
        Computed,
        Slept,
        Sent,
        Received,
        Forked,
        ChildExited,
        IoDone,
        UserSwitched,
    };

    Kind kind = Kind::Started;
    /** Bytes received (Received) or transferred (IoDone). */
    double bytes = 0;
    /** Context tag attached to received data (Received). */
    RequestId context = NoRequest;
    /** Child task id (Forked / ChildExited). */
    TaskId child = NoTask;
};

/**
 * The behaviour of a task. next() is called once at start (result
 * kind Started) and after every completed operation; it returns the
 * task's next operation. Return ExitOp to finish.
 */
class TaskLogic
{
  public:
    virtual ~TaskLogic() = default;

    /**
     * Produce the next operation.
     * @param kernel The kernel running this task (for socket lookup
     *        and similar queries; mutation is through ops only).
     * @param self The task executing this logic.
     * @param last Result of the previously completed operation.
     */
    virtual Op next(Kernel &kernel, Task &self, const OpResult &last) = 0;
};

/**
 * A TaskLogic built from a list of op generators, optionally looping
 * forever. Each generator may inspect the previous result; this
 * covers straight-line and simple server-loop programs, which is most
 * of the workload suite.
 */
class ScriptedLogic : public TaskLogic
{
  public:
    using Step = std::function<Op(Kernel &, Task &, const OpResult &)>;

    /**
     * @param steps Ordered op generators.
     * @param loop Restart from step 0 after the last step (server
     *        worker loop) instead of exiting.
     */
    explicit ScriptedLogic(std::vector<Step> steps, bool loop = false)
        : steps_(std::move(steps)), loop_(loop)
    {}

    Op next(Kernel &kernel, Task &self, const OpResult &last) override;

  private:
    std::vector<Step> steps_;
    bool loop_;
    std::size_t index_ = 0;
};

/**
 * A TaskLogic wrapping a single callable: the callable *is* next().
 * Convenient for tests and for workload processes whose control flow
 * is easier to express as an explicit state machine.
 */
class LambdaLogic : public TaskLogic
{
  public:
    using Fn = std::function<Op(Kernel &, Task &, const OpResult &)>;

    explicit LambdaLogic(Fn fn) : fn_(std::move(fn)) {}

    Op
    next(Kernel &kernel, Task &self, const OpResult &last) override
    {
        return fn_(kernel, self, last);
    }

  private:
    Fn fn_;
};

/** Scheduling state of a task. */
enum class TaskState {
    /** Waiting in a run queue. */
    Ready,
    /** Currently executing on a core. */
    Running,
    /** Waiting on a socket, timer, device, or child. */
    Blocked,
    /** Finished; kept until a waiter reaps it. */
    Exited,
};

/**
 * One schedulable entity. Owned by the kernel; workloads interact
 * with tasks through ids and the TaskLogic callbacks.
 */
class Task
{
  public:
    /** Unique id. */
    TaskId id = NoTask;
    /** Debug name (e.g. "httpd-3", "latex"). */
    std::string name;
    /** Scheduling state. */
    TaskState state = TaskState::Ready;
    /** Currently bound request context (NoRequest = none). */
    RequestId context = NoRequest;
    /** Pinned core, or -1 for any. */
    int affinity = -1;
    /** Core the task is running on (valid when Running). */
    int core = -1;
    /** Parent task (NoTask for roots). */
    TaskId parent = NoTask;

    /** Behaviour; released at exit. */
    std::shared_ptr<TaskLogic> logic;

    /** Remaining cycles of the current ComputeOp. */
    double pendingCycles = 0;
    /** Activity signature of the current ComputeOp. */
    hw::ActivityVector activity{};
    /** True while the current op is a ComputeOp. */
    bool computing = false;

    /** Result to deliver to logic->next() when it resumes. */
    OpResult resumeResult{};

    /** Task blocked waiting for this child to exit. */
    TaskId waitingForChild = NoTask;

    /** Device operations in flight (defers record reaping). */
    int pendingIo = 0;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_TASK_H
