/**
 * @file
 * The kernel's hook dispatch: it counts every dispatch per hook kind,
 * and an installed timer sees each hook set's call.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../hook_workload.h"

namespace pcon::os {
namespace {

TEST(HookDispatch, CountsEveryKindAsARecordingHookSetSeesIt)
{
    HookWorkload w;
    HookRecorder recorder;
    w.kernel.addHooks(&recorder);
    w.start();
    w.sim.run(sim::msec(20));

    // The same workload with no hook set registered: dispatches are
    // counted all the same, except sampling interrupts, which are not
    // armed without a hook set to deliver them to.
    HookWorkload bare;
    bare.start();
    bare.sim.run(sim::msec(20));

    for (std::size_t k = 0; k < NumHooks; ++k) {
        Hook kind = static_cast<Hook>(k);
        SCOPED_TRACE(k);
        EXPECT_GT(recorder.of(kind), 0u);
        EXPECT_EQ(w.kernel.hookCalls(kind), recorder.of(kind));
        EXPECT_EQ(bare.kernel.hookCalls(kind),
                  kind == Hook::SamplingInterrupt ? 0u : recorder.of(kind));
    }
}

TEST(HookDispatch, TimerSeesEachHookSetsCallInRegistrationOrder)
{
    HookWorkload w;
    HookRecorder first;
    HookRecorder second;
    // Every callback and every timer report, in the order they happen.
    std::vector<std::pair<Hook, std::size_t>> callbacks;
    std::vector<std::pair<Hook, std::size_t>> timed;
    first.onCall = [&](Hook kind) { callbacks.emplace_back(kind, 0); };
    second.onCall = [&](Hook kind) { callbacks.emplace_back(kind, 1); };
    w.kernel.addHooks(&first);
    w.kernel.addHooks(&second);
    bool nonnegative = true;
    w.kernel.timeHooks([&](Hook kind, std::size_t set, std::int64_t ns) {
        // The timer reports a call right after it returns.
        ASSERT_EQ(callbacks.size(), timed.size() + 1);
        EXPECT_EQ(callbacks.back(), std::make_pair(kind, set));
        timed.emplace_back(kind, set);
        nonnegative = nonnegative && ns >= 0;
    });
    w.start();
    w.sim.run(sim::msec(20));

    EXPECT_EQ(timed, callbacks);
    EXPECT_TRUE(nonnegative);
    ASSERT_EQ(timed.size(), 2 * hookDispatches(w.kernel));
    // Each dispatch reaches set 0, then set 1.
    for (std::size_t i = 0; i < timed.size(); i += 2) {
        EXPECT_EQ(timed[i].second, 0u);
        EXPECT_EQ(timed[i + 1], std::make_pair(timed[i].first,
                                               std::size_t{1}));
    }
}

TEST(HookDispatch, EmptyTimerStopsTiming)
{
    HookWorkload w;
    HookRecorder recorder;
    w.kernel.addHooks(&recorder);
    std::uint64_t timed = 0;
    w.kernel.timeHooks(
        [&](Hook, std::size_t, std::int64_t) { ++timed; });
    w.start();
    w.sim.run(sim::msec(2));
    std::uint64_t at_stop = hookDispatches(w.kernel);
    EXPECT_EQ(timed, at_stop);

    w.kernel.timeHooks({});
    w.sim.run(sim::msec(20));
    EXPECT_GT(hookDispatches(w.kernel), at_stop);
    EXPECT_EQ(timed, at_stop);
}

} // namespace
} // namespace pcon::os
