#include "kernel.h"

#include <algorithm>
// Host clock for the hook timer (timeHooks) only.
#include <chrono>
#include <utility>

#include "util/audit.h"
#include "util/logging.h"

namespace pcon {
namespace os {

using util::panicIf;

Kernel::Kernel(hw::Machine &machine, RequestContextManager &requests,
               const KernelConfig &cfg)
    : machine_(machine), requests_(requests), cfg_(cfg),
      cores_(static_cast<std::size_t>(machine.totalCores())),
      disk_(machine, hw::DeviceKind::Disk, cfg.disk,
            [this](Task *t, double b, sim::SimTime s) {
                ioCompleted(hw::DeviceKind::Disk, t, b, s);
            }),
      net_(machine, hw::DeviceKind::Net, cfg.net,
           [this](Task *t, double b, sim::SimTime s) {
               ioCompleted(hw::DeviceKind::Net, t, b, s);
           })
{
    if (cfg_.samplingPeriodCycles <= 0) {
        // Default: one sampling interrupt per ~1 ms of non-halt time.
        cfg_.samplingPeriodCycles = machine.config().freqGhz * 1e6;
    }
    for (auto &core : cores_)
        core.samplerRemainingCycles = cfg_.samplingPeriodCycles;

    // Placement order spreads tasks across chips first, matching the
    // Linux performance-oriented policy the paper observes (Figure 1:
    // on the dual-socket machine both sockets wake at two busy cores).
    const hw::MachineConfig &mc = machine.config();
    for (int slot = 0; slot < mc.coresPerChip; ++slot)
        for (int chip = 0; chip < mc.chips; ++chip)
            placementOrder_.push_back(chip * mc.coresPerChip + slot);
}

Kernel::~Kernel() = default;

void
Kernel::addHooks(KernelHooks *hooks)
{
    panicIf(hooks == nullptr, "null hooks");
    hooks_.push_back(hooks);
    // The sampling interrupt has a consumer from now on: program it on
    // every busy core, a full period away.
    if (hooks_.size() == 1)
        for (int core = 0; core < machine_.totalCores(); ++core)
            armSampler(core);
}

std::uint64_t
Kernel::hookCalls(Hook kind) const
{
    return hookCalls_[static_cast<std::size_t>(kind)];
}

void
Kernel::timeHooks(HookTimer timer)
{
    hookTimer_ = std::move(timer);
}

template <typename F>
void
Kernel::dispatch(Hook kind, F &&call)
{
    ++hookCalls_[static_cast<std::size_t>(kind)];
    if (!hookTimer_) {
        for (KernelHooks *h : hooks_)
            call(*h);
        return;
    }
    // Self-measurement for telemetry: the host time goes to the timer
    // only, never into simulation state.
    for (std::size_t set = 0; set < hooks_.size(); ++set) {
        // pcon-lint: allow(wall-clock) host monotonic clock; timer only
        auto start = std::chrono::steady_clock::now();
        call(*hooks_[set]);
        // pcon-lint: allow(wall-clock) host monotonic clock; see above
        auto spent = std::chrono::steady_clock::now() - start;
        // pcon-lint: allow(wall-clock) the two host reads' difference
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(spent);
        hookTimer_(kind, set, ns.count());
    }
}

void
Kernel::setDutyPolicy(std::function<int(const Task &)> policy)
{
    dutyPolicy_ = std::move(policy);
}

void
Kernel::setPStatePolicy(std::function<int(const Task &)> policy)
{
    pstatePolicy_ = std::move(policy);
}

void
Kernel::setStatsProvider(
    std::function<RequestStatsTag(RequestId)> provider)
{
    statsProvider_ = std::move(provider);
}

RequestStatsTag
Kernel::statsFor(RequestId context) const
{
    RequestStatsTag tag{};
    if (statsProvider_ && context != NoRequest)
        tag = statsProvider_(context);
    // The span id travels even without a stats provider: causal
    // stitching does not require the accounting engine.
    tag.spanId = spanFor(context);
    return tag;
}

void
Kernel::setSpanProvider(
    std::function<std::uint64_t(RequestId)> provider)
{
    spanProvider_ = std::move(provider);
}

std::uint64_t
Kernel::spanFor(RequestId context) const
{
    if (!spanProvider_ || context == NoRequest)
        return 0;
    return spanProvider_(context);
}

void
Kernel::setSegmentPerturber(SegmentPerturber fn)
{
    segmentPerturber_ = std::move(fn);
}

TaskId
Kernel::spawn(std::shared_ptr<TaskLogic> logic, const std::string &name,
              RequestId context, int affinity)
{
    panicIf(!logic, "spawn with null logic");
    panicIf(affinity >= machine_.totalCores(),
            "affinity out of range: ", affinity);
    auto task = std::make_unique<Task>();
    task->id = nextTaskId_++;
    task->name = name;
    task->context = context;
    task->affinity = affinity;
    task->logic = std::move(logic);
    task->state = TaskState::Ready;
    task->resumeResult = OpResult{};
    Task *raw = task.get();
    tasks_.emplace(raw->id, std::move(task));
    makeReady(raw);
    return raw->id;
}

void
Kernel::bindContext(TaskId id, RequestId context)
{
    Task *task = findTask(id);
    panicIf(task == nullptr, "bindContext on unknown task ", id);
    rebind(task, context);
}

Task *
Kernel::findTask(TaskId id)
{
    auto it = tasks_.find(id);
    return it == tasks_.end() ? nullptr : it->second.get();
}

bool
Kernel::kill(TaskId id)
{
    Task *task = findTask(id);
    if (task == nullptr || task->state == TaskState::Exited)
        return false;

    switch (task->state) {
      case TaskState::Running:
        deschedule(task->core);
        break;
      case TaskState::Ready:
        for (CoreState &cs : cores_) {
            auto it = std::find(cs.runQueue.begin(),
                                cs.runQueue.end(), task);
            if (it != cs.runQueue.end()) {
                cs.runQueue.erase(it);
                break;
            }
        }
        break;
      case TaskState::Blocked:
        // Detach from socket waits; timer and device completions
        // check the task state and skip exited tasks on their own.
        for (auto &socket : sockets_)
            if (socket->waitingReader_ == task)
                socket->waitingReader_ = nullptr;
        break;
      case TaskState::Exited:
        break;
    }

    dispatch(Hook::TaskExit,
             [&](KernelHooks &h) { h.onTaskExit(*task); });
    task->state = TaskState::Exited;
    task->logic.reset();

    Task *parent = findTask(task->parent);
    if (parent && parent->waitingForChild == id) {
        parent->waitingForChild = NoTask;
        parent->resumeResult = {OpResult::Kind::ChildExited, 0,
                                NoRequest, id};
        if (task->pendingIo == 0)
            tasks_.erase(id); // task dangles beyond this point
        makeReady(parent);
    }
    // A freed core picks up queued work.
    for (int c = 0; c < machine_.totalCores(); ++c)
        if (cores_[c].current == nullptr)
            scheduleCore(c);
    return true;
}

Task *
Kernel::runningTask(int core)
{
    panicIf(core < 0 || core >= machine_.totalCores(),
            "core out of range: ", core);
    return cores_[core].current;
}

std::pair<Socket *, Socket *>
Kernel::socketPair()
{
    auto a = std::make_unique<Socket>();
    auto b = std::make_unique<Socket>();
    a->peer_ = b.get();
    b->peer_ = a.get();
    a->kernel_ = this;
    b->kernel_ = this;
    Socket *ra = a.get();
    Socket *rb = b.get();
    sockets_.push_back(std::move(a));
    sockets_.push_back(std::move(b));
    return {ra, rb};
}

std::pair<Socket *, Socket *>
Kernel::connect(Kernel &a, Kernel &b, sim::SimTime latency)
{
    panicIf(latency < 0, "negative link latency");
    auto sa = std::make_unique<Socket>();
    auto sb = std::make_unique<Socket>();
    sa->peer_ = sb.get();
    sb->peer_ = sa.get();
    sa->kernel_ = &a;
    sb->kernel_ = &b;
    sa->latency_ = latency;
    sb->latency_ = latency;
    Socket *ra = sa.get();
    Socket *rb = sb.get();
    a.sockets_.push_back(std::move(sa));
    b.sockets_.push_back(std::move(sb));
    return {ra, rb};
}

sim::SimTime
Kernel::deviceBusyTime(hw::DeviceKind kind) const
{
    return kind == hw::DeviceKind::Disk ? disk_.busyTime()
                                        : net_.busyTime();
}

std::uint64_t
Kernel::deviceBytes(hw::DeviceKind kind) const
{
    return kind == hw::DeviceKind::Disk ? disk_.completedBytes()
                                        : net_.completedBytes();
}

std::size_t
Kernel::coreLoad(int core) const
{
    panicIf(core < 0 || core >= machine_.totalCores(),
            "core out of range: ", core);
    const CoreState &cs = cores_[core];
    return cs.runQueue.size() + (cs.current ? 1 : 0);
}

std::size_t
Kernel::totalLoad() const
{
    std::size_t load = 0;
    for (int c = 0; c < machine_.totalCores(); ++c)
        load += coreLoad(c);
    return load;
}

std::size_t
Kernel::liveTaskCount() const
{
    std::size_t live = 0;
    // pcon-lint: allow(unordered-iteration) pure count, order irrelevant
    for (const auto &[id, task] : tasks_)
        if (task->state != TaskState::Exited)
            ++live;
    return live;
}

std::vector<TaskId>
Kernel::liveTaskIds() const
{
    std::vector<TaskId> ids;
    ids.reserve(tasks_.size());
    // pcon-lint: allow(unordered-iteration) sorted before returning
    for (const auto &[id, task] : tasks_)
        if (task->state != TaskState::Exited)
            ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
Kernel::reapExited()
{
    for (auto it = tasks_.begin(); it != tasks_.end();) {
        if (it->second->state == TaskState::Exited &&
            it->second->pendingIo == 0)
            it = tasks_.erase(it);
        else
            ++it;
    }
}

// --------------------------- scheduling ---------------------------

void
Kernel::makeReady(Task *task)
{
    task->state = TaskState::Ready;
    int core = task->affinity >= 0 ? task->affinity : pickCore(*task);
    enqueue(core, task);
    scheduleCore(core);
}

int
Kernel::pickCore(const Task &task) const
{
    (void)task;
    int best = placementOrder_.front();
    std::size_t best_load = coreLoad(best);
    for (int core : placementOrder_) {
        std::size_t load = coreLoad(core);
        if (load < best_load) {
            best = core;
            best_load = load;
        }
        if (best_load == 0)
            break;
    }
    return best;
}

void
Kernel::enqueue(int core, Task *task)
{
    CoreState &cs = cores_[core];
    cs.runQueue.push_back(task);
    // A newly runnable competitor starts the preemption clock.
    if (cs.current && cs.current->computing)
        armSlice(core);
}

void
Kernel::scheduleCore(int core)
{
    CoreState &cs = cores_[core];
    while (!cs.current && !cs.runQueue.empty()) {
        Task *next = cs.runQueue.front();
        cs.runQueue.pop_front();
        switchTo(core, next);
        if (!next->computing) {
            // Fresh or resumed logic: run instant ops until the task
            // computes, blocks, or exits.
            resumeLogic(next);
        }
    }
}

void
Kernel::switchTo(int core, Task *next)
{
    CoreState &cs = cores_[core];
    panicIf(cs.current != nullptr, "switchTo with occupied core");
    panicIf(next == nullptr, "switchTo(nullptr)");
    dispatch(Hook::ContextSwitch, [&](KernelHooks &h) {
        h.onContextSwitch(core, nullptr, next);
    });
    cs.current = next;
    next->state = TaskState::Running;
    next->core = core;
    bool actuated = false;
    if (dutyPolicy_) {
        int level = dutyPolicy_(*next);
        PCON_AUDIT_MSG(level >= 1 &&
                           level <= machine_.config().dutyDenom,
                       "duty policy returned level ", level,
                       " outside 1..", machine_.config().dutyDenom,
                       " for task ", next->name);
        machine_.setDutyLevel(core, level);
        actuated = true;
    }
    if (pstatePolicy_) {
        int pstate = pstatePolicy_(*next);
        PCON_AUDIT_MSG(
            pstate >= 0 &&
                pstate <
                    static_cast<int>(machine_.config().pstates.size()),
            "P-state policy returned ", pstate, " outside 0..",
            machine_.config().pstates.size() - 1, " for task ",
            next->name);
        machine_.setPState(core, pstate);
        actuated = true;
    }
    if (actuated)
        dispatch(Hook::Actuation, [&](KernelHooks &h) {
            h.onActuation(core, machine_.dutyLevel(core),
                          machine_.pstate(core));
        });
    if (next->computing) {
        machine_.setRunning(core, next->activity);
        armCompute(core);
        armSampler(core);
        if (!cs.runQueue.empty())
            armSlice(core);
    }
}

void
Kernel::deschedule(int core)
{
    CoreState &cs = cores_[core];
    Task *prev = cs.current;
    panicIf(prev == nullptr, "deschedule on idle core");
    if (prev->computing)
        disarmCompute(core);
    disarmSlice(core);
    disarmSampler(core);
    dispatch(Hook::ContextSwitch, [&](KernelHooks &h) {
        h.onContextSwitch(core, prev, nullptr);
    });
    machine_.setIdle(core);
    cs.current = nullptr;
    prev->core = -1;
}

void
Kernel::preempt(int core)
{
    CoreState &cs = cores_[core];
    cs.sliceEvent = sim::InvalidEventId;
    if (!cs.current)
        return;
    if (cs.runQueue.empty()) {
        // Competitors left meanwhile; keep running, no clock needed
        // until the next enqueue.
        return;
    }
    Task *prev = cs.current;
    deschedule(core);
    prev->state = TaskState::Ready;
    cs.runQueue.push_back(prev);
    scheduleCore(core);
}

// -------------------------- op execution --------------------------

void
Kernel::resumeLogic(Task *task)
{
    for (int i = 0; i < maxInstantOps_; ++i) {
        Op op = task->logic->next(*this, *task, task->resumeResult);
        if (!applyOp(task, op))
            return;
    }
    util::panic("task ", task->name,
                " issued too many zero-time ops in a row");
}

bool
Kernel::applyOp(Task *task, Op op)
{
    return std::visit(
        [&](auto &&concrete) -> bool {
            using T = std::decay_t<decltype(concrete)>;
            if constexpr (std::is_same_v<T, ComputeOp>) {
                if (concrete.cycles <= 0) {
                    task->resumeResult = {OpResult::Kind::Computed};
                    return true;
                }
                startCompute(task, concrete);
                return false;
            } else if constexpr (std::is_same_v<T, SendOp>) {
                doSend(task, concrete);
                task->resumeResult = {OpResult::Kind::Sent};
                return true;
            } else if constexpr (std::is_same_v<T, RecvOp>) {
                return tryRecv(task, concrete);
            } else if constexpr (std::is_same_v<T, ForkOp>) {
                doFork(task, concrete);
                return true;
            } else if constexpr (std::is_same_v<T, WaitChildOp>) {
                return tryWaitChild(task, concrete);
            } else if constexpr (std::is_same_v<T, SleepOp>) {
                doSleep(task, concrete);
                return false;
            } else if constexpr (std::is_same_v<T, IoOp>) {
                doIo(task, concrete);
                return false;
            } else if constexpr (std::is_same_v<T, UserSwitchOp>) {
                // A trapped access to the application's sync
                // structures reveals the user-level transfer; without
                // the trap, the kernel cannot see it.
                if (cfg_.trapUserLevelSwitches)
                    rebind(task, concrete.context);
                task->resumeResult = {OpResult::Kind::UserSwitched};
                return true;
            } else {
                static_assert(std::is_same_v<T, ExitOp>);
                exitTask(task);
                return false;
            }
        },
        std::move(op));
}

void
Kernel::startCompute(Task *task, const ComputeOp &op)
{
    int core = task->core;
    panicIf(core < 0, "startCompute off-core");
    CoreState &cs = cores_[core];
    task->activity = op.activity;
    task->pendingCycles = op.cycles;
    task->computing = true;
    machine_.setRunning(core, task->activity);
    armCompute(core);
    armSampler(core);
    if (!cs.runQueue.empty())
        armSlice(core);
}

void
Kernel::finishCompute(int core)
{
    CoreState &cs = cores_[core];
    cs.computeEvent = sim::InvalidEventId;
    Task *task = cs.current;
    panicIf(task == nullptr || !task->computing,
            "compute completion on idle core");
    task->pendingCycles = 0;
    task->computing = false;
    // The core keeps the old activity on the books until the next op
    // decision, which happens in zero simulated time.
    task->resumeResult = {OpResult::Kind::Computed};
    resumeLogic(task);
    if (!cs.current)
        scheduleCore(core);
}

void
Kernel::doSend(Task *task, const SendOp &op)
{
    panicIf(op.socket == nullptr, "send on null socket");
    op.socket->send(op.bytes, task->context);
}

bool
Kernel::tryRecv(Task *task, const RecvOp &op)
{
    Socket *socket = op.socket;
    panicIf(socket == nullptr, "recv on null socket");
    panicIf(socket->waitingReader_ != nullptr &&
            socket->waitingReader_ != task,
            "two tasks reading one socket");
    if (socket->rx_.empty()) {
        socket->waitingReader_ = task;
        blockCurrent(task);
        return false;
    }
    Segment merged = consumeReadable(socket);
    rebind(task, merged.context);
    dispatch(Hook::SegmentReceived,
             [&](KernelHooks &h) { h.onSegmentReceived(*task, merged); });
    task->resumeResult = {OpResult::Kind::Received, merged.bytes,
                          merged.context, NoTask};
    return true;
}

void
Kernel::doFork(Task *task, const ForkOp &op)
{
    panicIf(!op.childLogic, "fork with null child logic");
    TaskId child = spawn(op.childLogic,
                         op.name.empty() ? task->name + "-child"
                                         : op.name,
                         task->context);
    Task *child_task = findTask(child);
    child_task->parent = task->id;
    // spawn() may already have switched the child onto an idle core
    // (firing onContextSwitch for it), so hooks that track fork
    // ancestry must tolerate seeing the child first.
    dispatch(Hook::Fork,
             [&](KernelHooks &h) { h.onFork(*task, *child_task); });
    task->resumeResult = {OpResult::Kind::Forked, 0, NoRequest, child};
}

bool
Kernel::tryWaitChild(Task *task, const WaitChildOp &op)
{
    Task *child = findTask(op.child);
    if (child == nullptr || child->state == TaskState::Exited) {
        if (child != nullptr && child->pendingIo == 0)
            tasks_.erase(op.child);
        task->resumeResult = {OpResult::Kind::ChildExited, 0,
                              NoRequest, op.child};
        return true;
    }
    task->waitingForChild = op.child;
    blockCurrent(task);
    return false;
}

void
Kernel::doSleep(Task *task, const SleepOp &op)
{
    panicIf(op.duration < 0, "negative sleep");
    blockCurrent(task);
    simulation().schedule(op.duration, [this, id = task->id] {
        Task *t = findTask(id);
        if (t == nullptr || t->state != TaskState::Blocked)
            return;
        t->resumeResult = {OpResult::Kind::Slept};
        makeReady(t);
    });
}

void
Kernel::doIo(Task *task, const IoOp &op)
{
    blockCurrent(task);
    ++task->pendingIo;
    IoDevice &device =
        op.device == hw::DeviceKind::Disk ? disk_ : net_;
    device.submit(task, op.bytes);
}

void
Kernel::exitTask(Task *task)
{
    dispatch(Hook::TaskExit,
             [&](KernelHooks &h) { h.onTaskExit(*task); });
    int core = task->core;
    if (core >= 0) {
        // Free the core (the common case: a task exits while running).
        deschedule(core);
    }
    task->state = TaskState::Exited;
    task->logic.reset();

    Task *parent = findTask(task->parent);
    TaskId exited_id = task->id;
    if (parent && parent->waitingForChild == exited_id) {
        parent->waitingForChild = NoTask;
        parent->resumeResult = {OpResult::Kind::ChildExited, 0,
                                NoRequest, exited_id};
        tasks_.erase(exited_id); // task is dangling beyond this point
        makeReady(parent);
    }
    if (core >= 0)
        scheduleCore(core);
}

void
Kernel::blockCurrent(Task *task)
{
    int core = task->core;
    panicIf(core < 0 || cores_[core].current != task,
            "blockCurrent on a task that is not running");
    deschedule(core);
    task->state = TaskState::Blocked;
    scheduleCore(core);
}

// ----------------------------- timers -----------------------------

void
Kernel::armCompute(int core)
{
    CoreState &cs = cores_[core];
    Task *task = cs.current;
    panicIf(task == nullptr || !task->computing, "armCompute misuse");
    panicIf(cs.computeEvent != sim::InvalidEventId,
            "compute timer double-armed");
    cs.computeRateHz = machine_.workRateHz(core);
    cs.computeArmedAt = simulation().now();
    sim::SimTime delay = sim::secF(task->pendingCycles /
                                   cs.computeRateHz);
    cs.computeEvent = simulation().schedule(
        delay, [this, core] { finishCompute(core); });
}

void
Kernel::disarmCompute(int core)
{
    CoreState &cs = cores_[core];
    if (cs.computeEvent == sim::InvalidEventId)
        return;
    simulation().cancel(cs.computeEvent);
    cs.computeEvent = sim::InvalidEventId;
    Task *task = cs.current;
    panicIf(task == nullptr, "disarmCompute on idle core");
    double elapsed_s =
        sim::toSeconds(simulation().now() - cs.computeArmedAt);
    task->pendingCycles = std::max(
        0.0, task->pendingCycles - elapsed_s * cs.computeRateHz);
}

void
Kernel::armSlice(int core)
{
    CoreState &cs = cores_[core];
    if (cs.sliceEvent != sim::InvalidEventId)
        return;
    cs.sliceEvent = simulation().schedule(
        cfg_.timeslice, [this, core] { preempt(core); });
}

void
Kernel::disarmSlice(int core)
{
    CoreState &cs = cores_[core];
    if (cs.sliceEvent == sim::InvalidEventId)
        return;
    simulation().cancel(cs.sliceEvent);
    cs.sliceEvent = sim::InvalidEventId;
}

void
Kernel::armSampler(int core)
{
    CoreState &cs = cores_[core];
    if (cs.samplerEvent != sim::InvalidEventId)
        return;
    if (hooks_.empty() || !machine_.isBusy(core))
        return; // no hook set to deliver to, or the core idles
    cs.samplerRateHz = machine_.workRateHz(core);
    cs.samplerArmedAt = simulation().now();
    PCON_AUDIT_MSG(cs.samplerRateHz > 0 &&
                       cs.samplerRemainingCycles >= 0,
                   "sampler deadline corrupt on core ", core,
                   ": rate ", cs.samplerRateHz, " Hz, remaining ",
                   cs.samplerRemainingCycles, " cycles");
    sim::SimTime delay = sim::secF(cs.samplerRemainingCycles /
                                   cs.samplerRateHz);
    cs.samplerEvent = simulation().schedule(
        delay, [this, core] { samplerFired(core); });
}

void
Kernel::disarmSampler(int core)
{
    CoreState &cs = cores_[core];
    if (cs.samplerEvent == sim::InvalidEventId)
        return;
    simulation().cancel(cs.samplerEvent);
    cs.samplerEvent = sim::InvalidEventId;
    double elapsed_s =
        sim::toSeconds(simulation().now() - cs.samplerArmedAt);
    cs.samplerRemainingCycles = std::max(
        1.0, cs.samplerRemainingCycles - elapsed_s * cs.samplerRateHz);
}

void
Kernel::samplerFired(int core)
{
    CoreState &cs = cores_[core];
    cs.samplerEvent = sim::InvalidEventId;
    cs.samplerRemainingCycles = cfg_.samplingPeriodCycles;
    dispatch(Hook::SamplingInterrupt,
             [&](KernelHooks &h) { h.onSamplingInterrupt(core); });
    // A hook may have rearmed via setDutyLevel; armSampler no-ops then.
    armSampler(core);
}

void
Kernel::setDutyLevel(int core, int level)
{
    panicIf(core < 0 || core >= machine_.totalCores(),
            "core out of range: ", core);
    CoreState &cs = cores_[core];
    disarmSampler(core);
    bool computing = cs.current && cs.current->computing;
    if (computing)
        disarmCompute(core);
    machine_.setDutyLevel(core, level);
    if (computing)
        armCompute(core);
    armSampler(core);
    dispatch(Hook::Actuation, [&](KernelHooks &h) {
        h.onActuation(core, machine_.dutyLevel(core),
                      machine_.pstate(core));
    });
}

void
Kernel::setPState(int core, int pstate)
{
    panicIf(core < 0 || core >= machine_.totalCores(),
            "core out of range: ", core);
    CoreState &cs = cores_[core];
    disarmSampler(core);
    bool computing = cs.current && cs.current->computing;
    if (computing)
        disarmCompute(core);
    machine_.setPState(core, pstate);
    if (computing)
        armCompute(core);
    armSampler(core);
    dispatch(Hook::Actuation, [&](KernelHooks &h) {
        h.onActuation(core, machine_.dutyLevel(core),
                      machine_.pstate(core));
    });
}

// ----------------------------- sockets ----------------------------

void
Socket::send(double bytes, RequestId context)
{
    util::panicIf(peer_ == nullptr, "send on unconnected socket");
    util::panicIf(bytes < 0, "negative send size");
    // Piggyback the sending side's request statistics (Section 3.4):
    // the dispatcher reads them off response messages.
    Segment segment{bytes, context, kernel_->statsFor(context)};
    Socket *peer = peer_;
    if (kernel_->segmentPerturber_) {
        for (const SegmentDelivery &d :
             kernel_->segmentPerturber_(segment)) {
            Segment out = d.segment;
            peer->kernel_->simulation().schedule(
                latency_ + d.extraDelay,
                [peer, out] { peer->deliver(out); });
        }
        return;
    }
    peer->kernel_->simulation().schedule(
        latency_, [peer, segment] { peer->deliver(segment); });
}

void
Socket::setDeliveryCallback(std::function<void(double, RequestId)> fn)
{
    deliveryCallback_ = std::move(fn);
}

void
Socket::setSegmentCallback(std::function<void(const Segment &)> fn)
{
    segmentCallback_ = std::move(fn);
}

void
Socket::deliver(const Segment &segment)
{
    lastArrivedTag_ = segment.context;
    if (segmentCallback_) {
        segmentCallback_(segment);
        return;
    }
    if (deliveryCallback_) {
        deliveryCallback_(segment.bytes, segment.context);
        return;
    }
    rx_.push_back(segment);
    if (waitingReader_ != nullptr)
        kernel_->completePendingRecv(this);
}

void
Kernel::completePendingRecv(Socket *socket)
{
    Task *reader = socket->waitingReader_;
    panicIf(reader == nullptr, "no pending reader");
    socket->waitingReader_ = nullptr;
    Segment merged = consumeReadable(socket);
    rebind(reader, merged.context);
    dispatch(Hook::SegmentReceived, [&](KernelHooks &h) {
        h.onSegmentReceived(*reader, merged);
    });
    reader->resumeResult = {OpResult::Kind::Received, merged.bytes,
                            merged.context, NoTask};
    makeReady(reader);
}

Segment
Kernel::consumeReadable(Socket *socket)
{
    panicIf(socket->rx_.empty(), "consume on empty socket");
    Segment merged;
    if (cfg_.perSegmentSocketTagging) {
        // Read the contiguous prefix sharing one request tag so the
        // reader inherits the context of the data it actually reads.
        merged.context = socket->rx_.front().context;
        while (!socket->rx_.empty() &&
               socket->rx_.front().context == merged.context) {
            const Segment &front = socket->rx_.front();
            merged.bytes += front.bytes;
            // Keep the freshest piggybacked statistics: cumulative
            // values mean the last-sent tag supersedes earlier ones.
            if (front.stats.present || front.stats.spanId != 0)
                merged.stats = front.stats;
            socket->rx_.pop_front();
        }
    } else {
        // Naive mode: drain everything under the most recently
        // arrived tag (wrong across back-to-back requests).
        merged.context = socket->lastArrivedTag_;
        while (!socket->rx_.empty()) {
            const Segment &front = socket->rx_.front();
            merged.bytes += front.bytes;
            if (front.stats.present || front.stats.spanId != 0)
                merged.stats = front.stats;
            socket->rx_.pop_front();
        }
    }
    return merged;
}

void
Kernel::rebind(Task *task, RequestId new_ctx)
{
    if (new_ctx == NoRequest || new_ctx == task->context)
        return;
    RequestId old_ctx = task->context;
    dispatch(Hook::ContextRebind, [&](KernelHooks &h) {
        h.onContextRebind(*task, old_ctx, new_ctx);
    });
    task->context = new_ctx;
}

void
Kernel::ioCompleted(hw::DeviceKind kind, Task *task, double bytes,
                    sim::SimTime busy)
{
    --task->pendingIo;
    // The transfer happened physically, so the hooks (energy
    // attribution) run even for a task killed mid-I/O — but a killed
    // task is not woken.
    dispatch(Hook::IoComplete, [&](KernelHooks &h) {
        h.onIoComplete(kind, task->context, busy, bytes);
    });
    if (task->state == TaskState::Exited)
        return;
    task->resumeResult = {OpResult::Kind::IoDone, bytes, NoRequest,
                          NoTask};
    makeReady(task);
}

} // namespace os
} // namespace pcon
