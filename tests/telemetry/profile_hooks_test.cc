/**
 * @file
 * telemetry::profileHooks: the kernel's hook timer published as the
 * overhead.* and perf.* metrics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "../hook_workload.h"
#include "telemetry/instrumentation.h"
#include "telemetry/registry.h"

namespace pcon::telemetry {
namespace {

using os::Hook;

/** Each hook kind with its perf.* class name. */
constexpr std::pair<Hook, const char *> kClasses[] = {
    {Hook::ContextSwitch, "context_switch"},
    {Hook::ContextRebind, "context_rebind"},
    {Hook::SamplingInterrupt, "sampling_window"},
    {Hook::IoComplete, "io_complete"},
    {Hook::TaskExit, "task_exit"},
    {Hook::Fork, "fork"},
    {Hook::SegmentReceived, "segment_received"},
    {Hook::Actuation, "actuation"},
};

/** Each hook kind with an overhead.* histogram, and its name. */
constexpr std::pair<Hook, const char *> kHistograms[] = {
    {Hook::ContextSwitch, "overhead.context_switch_cycles"},
    {Hook::ContextRebind, "overhead.rebind_cycles"},
    {Hook::SamplingInterrupt, "overhead.sampling_window_cycles"},
    {Hook::IoComplete, "overhead.io_complete_cycles"},
    {Hook::Actuation, "overhead.actuation_cycles"},
};

/** Counter value by name, or ~0 when absent. */
std::uint64_t
counterValue(const Registry &reg, const std::string &name)
{
    for (const auto &entry : reg.entries())
        if (entry.name == name && entry.counter != nullptr)
            return entry.counter->value();
    return static_cast<std::uint64_t>(-1);
}

/** Histogram by name, or nullptr when absent. */
const Histogram *
histogram(const Registry &reg, const std::string &name)
{
    for (const auto &entry : reg.entries())
        if (entry.name == name)
            return entry.histogram;
    return nullptr;
}

std::uint64_t
perfCalls(const Registry &reg, const char *cls)
{
    return counterValue(reg, std::string("perf.") + cls + ".calls");
}

TEST(ProfileHooks, TimesEveryHookSetOfEveryDispatch)
{
    HookWorkload w;
    HookRecorder first;
    HookRecorder second;
    w.kernel.addHooks(&first);
    w.kernel.addHooks(&second);
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    w.start();
    w.sim.run(sim::msec(20));

    for (const auto &[kind, cls] : kClasses) {
        SCOPED_TRACE(cls);
        ASSERT_GT(w.kernel.hookCalls(kind), 0u);
        EXPECT_EQ(first.of(kind), w.kernel.hookCalls(kind));
        EXPECT_EQ(second.of(kind), w.kernel.hookCalls(kind));
        // One timed call per (dispatch, hook set).
        EXPECT_EQ(perfCalls(reg, cls), 2 * w.kernel.hookCalls(kind));
    }
    EXPECT_EQ(counterValue(reg, "overhead.hook_calls"),
              2 * hookDispatches(w.kernel));
}

TEST(ProfileHooks, RegistersCycleHistogramsPerHookFamily)
{
    HookWorkload w;
    Registry reg;
    profileHooks(reg, w.kernel, 2.4e9);
    for (const auto &[kind, name] : kHistograms) {
        ASSERT_TRUE(reg.has(name)) << name;
        EXPECT_EQ(reg.kindOf(name), InstrumentKind::Histogram);
    }
    ASSERT_TRUE(reg.has("overhead.hook_calls"));
    EXPECT_EQ(reg.kindOf("overhead.hook_calls"), InstrumentKind::Counter);
}

TEST(ProfileHooks, HistogramsAccumulateObservations)
{
    HookWorkload w;
    HookRecorder recorder;
    w.kernel.addHooks(&recorder);
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    w.start();
    w.sim.run(sim::msec(20));

    const Histogram *sw = histogram(reg, "overhead.context_switch_cycles");
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->count(), w.kernel.hookCalls(Hook::ContextSwitch));
    // Host timing is nonnegative and the mean is finite.
    EXPECT_GE(sw->sum(), 0.0);
    EXPECT_GE(sw->mean(), 0.0);
}

TEST(ProfileHooks, PerfCountersRegisteredPerHookClass)
{
    HookWorkload w;
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    for (const auto &[kind, cls] : kClasses) {
        std::string base = std::string("perf.") + cls;
        ASSERT_TRUE(reg.has(base + ".calls")) << base;
        ASSERT_TRUE(reg.has(base + ".cycles")) << base;
        EXPECT_EQ(reg.kindOf(base + ".calls"), InstrumentKind::Counter);
        EXPECT_EQ(reg.kindOf(base + ".cycles"), InstrumentKind::Counter);
    }
}

TEST(ProfileHooks, PerfCallCountsAreExactUnderFixedWorkload)
{
    HookWorkload w;
    HookRecorder recorder;
    w.kernel.addHooks(&recorder);
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    w.start();
    w.sim.run(sim::msec(20));

    // One hook set: one timed call per dispatch, of every kind.
    for (const auto &[kind, cls] : kClasses) {
        SCOPED_TRACE(cls);
        EXPECT_GT(perfCalls(reg, cls), 0u);
        EXPECT_EQ(perfCalls(reg, cls), recorder.of(kind));
    }
    // The aggregate counter is the sum of the per-class calls.
    EXPECT_EQ(counterValue(reg, "overhead.hook_calls"),
              hookDispatches(w.kernel));
}

TEST(ProfileHooks, PerfCallsMatchHistogramCounts)
{
    HookWorkload w;
    HookRecorder recorder;
    w.kernel.addHooks(&recorder);
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    w.start();
    w.sim.run(sim::msec(20));

    for (const auto &[kind, name] : kHistograms) {
        SCOPED_TRACE(name);
        const Histogram *hist = histogram(reg, name);
        ASSERT_NE(hist, nullptr);
        EXPECT_GT(hist->count(), 0u);
        EXPECT_EQ(hist->count(), w.kernel.hookCalls(kind));
    }
    EXPECT_EQ(perfCalls(reg, "context_switch"),
              histogram(reg, "overhead.context_switch_cycles")->count());
}

TEST(ProfileHooks, IdenticalWorkloadsProduceIdenticalPerfCallCounts)
{
    // Call counts are a pure function of the workload: two profiled
    // runs of the same workload agree exactly even though their
    // (host-timed) cycle totals may differ.
    Registry reg_a;
    Registry reg_b;
    for (Registry *reg : {&reg_a, &reg_b}) {
        HookWorkload w;
        HookRecorder recorder;
        w.kernel.addHooks(&recorder);
        profileHooks(*reg, w.kernel, 1e9);
        w.start();
        w.sim.run(sim::msec(20));
    }
    for (const auto &[kind, cls] : kClasses)
        EXPECT_EQ(perfCalls(reg_a, cls), perfCalls(reg_b, cls)) << cls;
    EXPECT_EQ(counterValue(reg_a, "overhead.hook_calls"),
              counterValue(reg_b, "overhead.hook_calls"));
}

TEST(ProfileHooks, WorksWithNoHookSets)
{
    HookWorkload w;
    Registry reg;
    profileHooks(reg, w.kernel, 1e9);
    w.start();
    w.sim.run(sim::msec(20));
    // The kernel still counts its dispatches; there is nothing to time.
    EXPECT_GT(hookDispatches(w.kernel), 0u);
    EXPECT_EQ(counterValue(reg, "overhead.hook_calls"), 0u);
}

} // namespace
} // namespace pcon::telemetry
