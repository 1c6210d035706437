#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "os/kernel.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::os {
namespace {

using hw::ActivityVector;
using hw::MachineConfig;
using sim::msec;
using sim::sec;
using sim::Simulation;
using sim::SimTime;
using sim::usec;

MachineConfig
testConfig(int chips = 1, int cores_per_chip = 2)
{
    MachineConfig cfg;
    cfg.name = "ostest";
    cfg.chips = chips;
    cfg.coresPerChip = cores_per_chip;
    cfg.freqGhz = 1.0; // 1 cycle/ns
    cfg.dutyDenom = 8;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.packageIdleW = 1.0;
    cfg.truth.chipMaintenanceW = 2.0;
    cfg.truth.coreBusyW = 5.0;
    cfg.truth.insW = 1.0;
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 2.0;
    return cfg;
}

const ActivityVector kSpin{1.0, 0.0, 0.0, 0.0};

/** World bundles a simulation, machine, contexts and kernel. */
struct World
{
    Simulation sim;
    hw::Machine machine;
    RequestContextManager requests;
    Kernel kernel;

    explicit World(const MachineConfig &cfg = testConfig(),
                   const KernelConfig &kcfg = {})
        : machine(sim, cfg), kernel(machine, requests, kcfg)
    {}
};

/** Logic that computes once then exits. */
std::shared_ptr<TaskLogic>
computeOnce(double cycles, const ActivityVector &act = kSpin)
{
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{act, cycles};
            }});
}

TEST(Kernel, SingleTaskRunsAndExits)
{
    World w;
    TaskId id = w.kernel.spawn(computeOnce(1e6), "t0"); // 1 ms work
    EXPECT_EQ(w.kernel.liveTaskCount(), 1u);
    w.sim.run(sec(1));
    Task *t = w.kernel.findTask(id);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->state, TaskState::Exited);
    EXPECT_FALSE(w.machine.isBusy(0));
    // Work took ~1 ms of busy time on core 0.
    hw::CounterSnapshot c = w.machine.readCounters(0);
    EXPECT_NEAR(c.nonhaltCycles, 1e6, 1.0);
}

TEST(Kernel, SpawnRejectsNullLogicAndBadAffinity)
{
    World w;
    EXPECT_THROW(w.kernel.spawn(nullptr, "x"), util::PanicError);
    EXPECT_THROW(w.kernel.spawn(computeOnce(1), "x", NoRequest, 99),
                 util::PanicError);
}

TEST(Kernel, PlacementSpreadsAcrossChipsFirst)
{
    // Two chips x two cores: second task must land on the second
    // chip's first core (core 2), matching the Linux policy in Fig 1.
    World w(testConfig(2, 2));
    w.kernel.spawn(computeOnce(1e9), "a");
    w.kernel.spawn(computeOnce(1e9), "b");
    w.sim.run(msec(1));
    EXPECT_TRUE(w.machine.isBusy(0));
    EXPECT_TRUE(w.machine.isBusy(2));
    EXPECT_FALSE(w.machine.isBusy(1));
    EXPECT_FALSE(w.machine.isBusy(3));
}

TEST(Kernel, AffinityPinsTask)
{
    World w;
    w.kernel.spawn(computeOnce(1e9), "pinned", NoRequest, 1);
    w.sim.run(msec(1));
    EXPECT_TRUE(w.machine.isBusy(1));
    EXPECT_FALSE(w.machine.isBusy(0));
}

TEST(Kernel, TimesliceSharesOneCoreFairly)
{
    // Both tasks pinned to core 0; each needs 5 ms of work; with a
    // 1 ms slice they interleave and finish within ~10 ms total.
    World w;
    TaskId a = w.kernel.spawn(computeOnce(5e6), "a", NoRequest, 0);
    TaskId b = w.kernel.spawn(computeOnce(5e6), "b", NoRequest, 0);
    w.sim.run(msec(9));
    // Neither can be done before 5 ms; both done by 10 ms; at 9 ms
    // exactly one of them must have finished.
    int exited = 0;
    exited += w.kernel.findTask(a)->state == TaskState::Exited;
    exited += w.kernel.findTask(b)->state == TaskState::Exited;
    EXPECT_EQ(exited, 1);
    w.sim.run(msec(11));
    EXPECT_EQ(w.kernel.findTask(b)->state, TaskState::Exited);
}

TEST(Kernel, SleepBlocksOffCpu)
{
    World w;
    std::vector<SimTime> marks;
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [&](Kernel &k, Task &, const OpResult &) -> Op {
                marks.push_back(k.simulation().now());
                return SleepOp{msec(5)};
            },
            [&](Kernel &k, Task &, const OpResult &r) -> Op {
                EXPECT_EQ(r.kind, OpResult::Kind::Slept);
                marks.push_back(k.simulation().now());
                return ExitOp{};
            }});
    w.kernel.spawn(logic, "sleeper");
    w.sim.run(sec(1));
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[1] - marks[0], msec(5));
    // Core never went busy.
    EXPECT_DOUBLE_EQ(w.machine.readCounters(0).nonhaltCycles, 0.0);
}

TEST(Kernel, SocketRoundTripCarriesContext)
{
    World w;
    auto [client_end, server_end] = w.kernel.socketPair();
    RequestId req = w.requests.create("type-a", w.sim.now());

    std::vector<RequestId> server_saw;
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [&, s = server_end](Kernel &, Task &, const OpResult &)
                -> Op { return RecvOp{s}; },
            [&, s = server_end](Kernel &, Task &self,
                                const OpResult &r) -> Op {
                EXPECT_EQ(r.kind, OpResult::Kind::Received);
                EXPECT_DOUBLE_EQ(r.bytes, 100.0);
                server_saw.push_back(self.context);
                return SendOp{s, 50.0};
            }},
        /*loop=*/true);
    w.kernel.spawn(server, "server");

    double reply_bytes = 0;
    RequestId reply_ctx = NoRequest;
    client_end->setDeliveryCallback([&](double b, RequestId ctx) {
        reply_bytes = b;
        reply_ctx = ctx;
    });
    client_end->send(100.0, req);
    w.sim.run(sec(1));

    ASSERT_EQ(server_saw.size(), 1u);
    // Server task inherited the request context from the message...
    EXPECT_EQ(server_saw[0], req);
    // ...and its reply carries the same tag back.
    EXPECT_EQ(reply_ctx, req);
    EXPECT_DOUBLE_EQ(reply_bytes, 50.0);
}

TEST(Kernel, PerSegmentTaggingSeparatesPipelinedRequests)
{
    // Two requests' messages arrive back-to-back on a persistent
    // connection before the server reads either. With per-segment
    // tags the server reads them as two differently-tagged reads.
    World w;
    auto [client_end, server_end] = w.kernel.socketPair();
    RequestId r1 = w.requests.create("a", w.sim.now());
    RequestId r2 = w.requests.create("a", w.sim.now());

    std::vector<RequestId> reads;
    std::vector<double> read_bytes;
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            // Busy first so both messages queue up unread.
            [&](Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{kSpin, 2e6};
            },
            [&, s = server_end](Kernel &, Task &, const OpResult &)
                -> Op { return RecvOp{s}; },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                reads.push_back(r.context);
                read_bytes.push_back(r.bytes);
                return ComputeOp{kSpin, 1e4};
            }},
        /*loop=*/true);
    w.kernel.spawn(server, "server");
    client_end->send(10.0, r1);
    client_end->send(20.0, r2);
    w.sim.run(msec(50));
    ASSERT_GE(reads.size(), 2u);
    // Each read returns only one request's contiguous data.
    EXPECT_EQ(reads[0], r1);
    EXPECT_DOUBLE_EQ(read_bytes[0], 10.0);
    EXPECT_EQ(reads[1], r2);
    EXPECT_DOUBLE_EQ(read_bytes[1], 20.0);
}

TEST(Kernel, NaiveTaggingMisattributesPipelinedRequests)
{
    // Ablation: with socket-level (not per-segment) tags, the first
    // read inherits the most recently arrived tag — request 2.
    KernelConfig kcfg;
    kcfg.perSegmentSocketTagging = false;
    World w(testConfig(), kcfg);
    auto [client_end, server_end] = w.kernel.socketPair();
    RequestId r1 = w.requests.create("a", w.sim.now());
    RequestId r2 = w.requests.create("a", w.sim.now());

    std::vector<RequestId> reads;
    std::vector<double> read_bytes;
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            // Busy first so both messages queue up unread.
            [&](Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{kSpin, 2e6};
            },
            [&, s = server_end](Kernel &, Task &, const OpResult &)
                -> Op { return RecvOp{s}; },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                reads.push_back(r.context);
                read_bytes.push_back(r.bytes);
                return ComputeOp{kSpin, 1e4};
            }},
        /*loop=*/true);
    w.kernel.spawn(server, "server");
    client_end->send(10.0, r1);
    client_end->send(20.0, r2);
    w.sim.run(msec(50));
    ASSERT_GE(reads.size(), 1u);
    // The single read drains both messages under the *newest* tag —
    // request 1's bytes are misattributed to request 2.
    EXPECT_EQ(reads[0], r2);
    EXPECT_DOUBLE_EQ(read_bytes[0], 30.0);
}

TEST(Kernel, ForkInheritsContextAndWaitReaps)
{
    World w;
    RequestId req = w.requests.create("t", w.sim.now());
    std::vector<RequestId> child_ctx;
    std::vector<OpResult::Kind> parent_results;

    auto child = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [&](Kernel &, Task &self, const OpResult &) -> Op {
                child_ctx.push_back(self.context);
                return ComputeOp{kSpin, 1e5};
            }});
    TaskId child_id = NoTask;
    auto parent = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [&, child](Kernel &, Task &, const OpResult &) -> Op {
                return ForkOp{child, "latex"};
            },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                EXPECT_EQ(r.kind, OpResult::Kind::Forked);
                child_id = r.child;
                return WaitChildOp{r.child};
            },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                parent_results.push_back(r.kind);
                EXPECT_EQ(r.child, child_id);
                return ExitOp{};
            }});
    w.kernel.spawn(parent, "httpd", req);
    w.sim.run(sec(1));
    ASSERT_EQ(child_ctx.size(), 1u);
    EXPECT_EQ(child_ctx[0], req);
    ASSERT_EQ(parent_results.size(), 1u);
    EXPECT_EQ(parent_results[0], OpResult::Kind::ChildExited);
    // Child record reaped by the wait.
    EXPECT_EQ(w.kernel.findTask(child_id), nullptr);
}

TEST(Kernel, IoBlocksTaskAndRaisesHookWithContext)
{
    struct IoHooks : KernelHooks
    {
        std::vector<RequestId> contexts;
        std::vector<double> bytes;
        void
        onIoComplete(hw::DeviceKind, RequestId ctx, SimTime,
                     double b) override
        {
            contexts.push_back(ctx);
            bytes.push_back(b);
        }
    } hooks;

    World w;
    w.kernel.addHooks(&hooks);
    RequestId req = w.requests.create("io", w.sim.now());
    auto logic = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](Kernel &, Task &, const OpResult &) -> Op {
                return IoOp{hw::DeviceKind::Disk, 1e6};
            },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                EXPECT_EQ(r.kind, OpResult::Kind::IoDone);
                return ExitOp{};
            }});
    w.kernel.spawn(logic, "reader", req);
    w.sim.run(sec(1));
    ASSERT_EQ(hooks.contexts.size(), 1u);
    EXPECT_EQ(hooks.contexts[0], req);
    EXPECT_DOUBLE_EQ(hooks.bytes[0], 1e6);
    // Disk energy accrued while servicing.
    EXPECT_GT(w.machine.deviceEnergyJ(hw::DeviceKind::Disk).value(), 0.0);
}

/** Records the simulated times of core 0's sampling interrupts. */
struct Core0Samples : KernelHooks
{
    std::vector<SimTime> times;
    Simulation *sim = nullptr;
    void
    onSamplingInterrupt(int core) override
    {
        if (core == 0)
            times.push_back(sim->now());
    }
};

TEST(Kernel, SamplingInterruptsFireAtCyclePeriodAndPauseWhenIdle)
{
    KernelConfig kcfg;
    kcfg.samplingPeriodCycles = 1e6; // 1 ms at 1 GHz
    World w(testConfig(), kcfg);
    Core0Samples hooks;
    hooks.sim = &w.sim;
    w.kernel.addHooks(&hooks);
    // 2.5 ms of work, then the core idles.
    w.kernel.spawn(computeOnce(2.5e6), "t", NoRequest, 0);
    w.sim.run(msec(20));
    // Interrupts at 1 ms and 2 ms only; none while idle.
    ASSERT_EQ(hooks.times.size(), 2u);
    EXPECT_EQ(hooks.times[0], msec(1));
    EXPECT_EQ(hooks.times[1], msec(2));
}

TEST(Kernel, SamplingInterruptsWaitForTheFirstHookSet)
{
    KernelConfig kcfg;
    kcfg.samplingPeriodCycles = 1e6; // 1 ms at 1 GHz
    World w(testConfig(), kcfg);
    Core0Samples hooks;
    hooks.sim = &w.sim;
    // 3 ms of work with no hook set registered: only the compute
    // completion is pending, no sampler timer.
    w.kernel.spawn(computeOnce(3e6), "t", NoRequest, 0);
    EXPECT_EQ(w.sim.pendingEvents(), 1u);
    // Registering mid-compute programs a full period from then on.
    w.sim.schedule(usec(500), [&] { w.kernel.addHooks(&hooks); });
    w.sim.run(msec(20));
    // Interrupts at 1.5 ms and 2.5 ms only; none once the core idles
    // at 3 ms.
    ASSERT_EQ(hooks.times.size(), 2u);
    EXPECT_EQ(hooks.times[0], usec(1500));
    EXPECT_EQ(hooks.times[1], usec(2500));
    EXPECT_EQ(w.kernel.hookCalls(Hook::SamplingInterrupt), 2u);
}

TEST(Kernel, DutyCycleSlowsComputeProportionally)
{
    World w;
    TaskId id = w.kernel.spawn(computeOnce(4e6), "t", NoRequest, 0);
    // At full duty this is 4 ms of work. Halve the duty at t=2 ms:
    // 2e6 cycles remain, now at 0.5e9 cycles/s -> 4 more ms.
    w.sim.schedule(msec(2), [&] { w.kernel.setDutyLevel(0, 4); });
    w.sim.run(msec(5));
    EXPECT_EQ(w.kernel.findTask(id)->state, TaskState::Running);
    w.sim.run(msec(7));
    EXPECT_EQ(w.kernel.findTask(id)->state, TaskState::Exited);
}

TEST(Kernel, DutyPolicyAppliedAtSwitchIn)
{
    World w;
    w.kernel.setDutyPolicy([](const Task &t) {
        return t.name == "slow" ? 2 : 8;
    });
    w.kernel.spawn(computeOnce(1e6), "slow", NoRequest, 0);
    w.kernel.spawn(computeOnce(1e6), "fast", NoRequest, 1);
    w.sim.run(usec(10));
    EXPECT_EQ(w.machine.dutyLevel(0), 2);
    EXPECT_EQ(w.machine.dutyLevel(1), 8);
}

TEST(Kernel, ContextSwitchHooksBracketExecution)
{
    struct SwitchHooks : KernelHooks
    {
        std::vector<std::pair<const Task *, const Task *>> switches;
        void
        onContextSwitch(int, Task *prev, Task *next) override
        {
            switches.emplace_back(prev, next);
        }
    } hooks;
    World w;
    w.kernel.addHooks(&hooks);
    w.kernel.spawn(computeOnce(1e5), "t", NoRequest, 0);
    w.sim.run(msec(1));
    // One switch in (idle->task), one switch out (task->idle).
    ASSERT_EQ(hooks.switches.size(), 2u);
    EXPECT_EQ(hooks.switches[0].first, nullptr);
    EXPECT_NE(hooks.switches[0].second, nullptr);
    EXPECT_NE(hooks.switches[1].first, nullptr);
    EXPECT_EQ(hooks.switches[1].second, nullptr);
}

TEST(Kernel, RebindFiresHookOnTaggedRecv)
{
    struct RebindHooks : KernelHooks
    {
        std::vector<std::pair<RequestId, RequestId>> rebinds;
        void
        onContextRebind(Task &, RequestId o, RequestId n) override
        {
            rebinds.emplace_back(o, n);
        }
    } hooks;
    World w;
    w.kernel.addHooks(&hooks);
    auto [client_end, server_end] = w.kernel.socketPair();
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [s = server_end](Kernel &, Task &, const OpResult &)
                -> Op { return RecvOp{s}; }},
        true);
    w.kernel.spawn(server, "server");
    RequestId r1 = w.requests.create("a", w.sim.now());
    client_end->send(1.0, r1);
    w.sim.run(msec(1));
    ASSERT_EQ(hooks.rebinds.size(), 1u);
    EXPECT_EQ(hooks.rebinds[0].first, NoRequest);
    EXPECT_EQ(hooks.rebinds[0].second, r1);
}

TEST(Kernel, CrossKernelSocketsApplyLatency)
{
    Simulation sim;
    hw::Machine ma(sim, testConfig());
    hw::Machine mb(sim, testConfig());
    RequestContextManager requests;
    Kernel ka(ma, requests);
    Kernel kb(mb, requests);
    auto [ea, eb] = Kernel::connect(ka, kb, usec(200));

    SimTime delivered_at = -1;
    eb->setDeliveryCallback([&](double, RequestId) {
        delivered_at = sim.now();
    });
    RequestId req = requests.create("x", sim.now());
    ea->send(10.0, req);
    sim.run(sec(1));
    EXPECT_EQ(delivered_at, usec(200));
}

TEST(Kernel, RequestManagerLifecycleNotifications)
{
    Simulation sim;
    RequestContextManager mgr;
    std::vector<RequestId> created, completed;
    std::vector<SimTime> completed_at;
    std::vector<bool> done_in_listener;
    mgr.onCreate([&](const RequestInfo &i) { created.push_back(i.id); });
    mgr.onComplete([&](const RequestInfo &i) {
        completed.push_back(i.id);
        completed_at.push_back(i.completed);
        done_in_listener.push_back(i.done && mgr.completed(i.id));
    });
    RequestId id = mgr.create("t", 5);
    EXPECT_TRUE(mgr.live(id));
    EXPECT_EQ(mgr.info(id).type, "t");
    EXPECT_EQ(mgr.info(id).created, 5);
    mgr.complete(id, 9);
    ASSERT_EQ(created.size(), 1u);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed_at[0], 9);
    EXPECT_TRUE(done_in_listener[0]);
    EXPECT_TRUE(mgr.completed(id));
    EXPECT_THROW(mgr.complete(id, 10), util::PanicError);
    EXPECT_THROW(mgr.info(999), util::PanicError);
    // Completion erased the context; nothing is left to reap.
    EXPECT_FALSE(mgr.live(id));
}

TEST(Kernel, ReapExitedDropsZombies)
{
    World w;
    w.kernel.spawn(computeOnce(1e5), "z");
    w.sim.run(sec(1));
    EXPECT_EQ(w.kernel.liveTaskCount(), 0u);
    w.kernel.reapExited();
    // findTask on reaped id: gone. (Id 1 was the only task.)
    EXPECT_EQ(w.kernel.findTask(1), nullptr);
}

TEST(Kernel, LoadAccountingTracksQueues)
{
    World w;
    w.kernel.spawn(computeOnce(1e9), "a", NoRequest, 0);
    w.kernel.spawn(computeOnce(1e9), "b", NoRequest, 0);
    w.kernel.spawn(computeOnce(1e9), "c", NoRequest, 0);
    w.sim.run(usec(1));
    EXPECT_EQ(w.kernel.coreLoad(0), 3u);
    EXPECT_EQ(w.kernel.coreLoad(1), 0u);
    EXPECT_EQ(w.kernel.totalLoad(), 3u);
}

} // namespace
} // namespace pcon::os
