/**
 * @file
 * Differential property test for the EventQueue: drive the
 * production heap (lazy cancel plus compaction) and a retained
 * reference implementation — a std::priority_queue with exact
 * pending-set cancellation — through 1M randomized, seeded
 * schedule/pop/cancel/reschedule operations across pathological time
 * distributions (bursty, far-future jumps, same-timestamp floods) and
 * assert identical observable behavior: pop order, pop times, payload
 * identity, sizes, and cancel results.
 *
 * The test is deterministic (sim::Rng) and runs under the ASan/UBSan
 * preset like every other test in the suite; a failure prints the
 * seed and operation index for exact replay.
 */

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "util/logging.h"

namespace pcon {
namespace sim {
namespace {

/**
 * The pre-ISSUE-8 EventQueue design, kept as the ordering oracle:
 * a std::priority_queue of (when, seq, callback) with FIFO
 * tie-breaking — but with an exact pending-id set so cancel()
 * reports precisely "was pending, now cancelled" (the lazy
 * blacklist's miscount on already-fired ids is the bug class the
 * rewrite eliminates, so the oracle models the *intended*
 * semantics).
 */
class ReferenceEventQueue
{
  public:
    using Callback = EventQueue::Callback;

    EventId
    schedule(SimTime when, Callback cb)
    {
        EventId id = nextId_++;
        heap_.push(Entry{when, nextSeq_++, id,
                         std::make_shared<Callback>(std::move(cb))});
        pending_.insert(id);
        return id;
    }

    bool
    cancel(EventId id)
    {
        return pending_.erase(id) != 0;
    }

    bool empty() const { return pending_.empty(); }

    std::size_t size() const { return pending_.size(); }

    SimTime
    nextTime()
    {
        skipCancelled();
        util::panicIf(heap_.empty(), "nextTime on empty queue");
        return heap_.top().when;
    }

    std::pair<SimTime, Callback>
    pop()
    {
        skipCancelled();
        util::panicIf(heap_.empty(), "pop on empty queue");
        Entry top = heap_.top();
        heap_.pop();
        pending_.erase(top.id);
        return {top.when, std::move(*top.cb)};
    }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        EventId id;
        std::shared_ptr<Callback> cb;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    void
    skipCancelled()
    {
        while (!heap_.empty() &&
               pending_.find(heap_.top().id) == pending_.end())
            heap_.pop();
    }

    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>>
        heap_;
    std::unordered_set<EventId> pending_;
    std::uint64_t nextSeq_ = 1;
    EventId nextId_ = 1;
};

/** One live event tracked on both queues. */
struct LivePair
{
    EventId realId;
    EventId refId;
    std::uint64_t payload;
};

/**
 * Time-distribution regimes the generator cycles through; each is a
 * pathological shape for some priority-queue design.
 */
enum class Regime
{
    Uniform,    // spread over a wide window
    Bursty,     // tight clusters around a slowly advancing base
    FarFuture,  // occasional jumps ~days of sim-time ahead
    SameTime,   // floods of events at one identical timestamp
};

SimTime
drawWhen(Rng &rng, Regime regime, SimTime base)
{
    switch (regime) {
    case Regime::Uniform:
        return base + rng.uniformInt(0, 50'000'000); // 50 ms window
    case Regime::Bursty:
        // 1 us-wide cluster, occasionally hopping clusters.
        return base + rng.uniformInt(0, 1'000) +
            (rng.uniform() < 0.02 ? rng.uniformInt(0, 10'000'000)
                                  : 0);
    case Regime::FarFuture:
        // Mostly near, occasionally ~3 sim-days out (stale far-future
        // entries sit deep in the heap until compaction drops them).
        if (rng.uniform() < 0.1)
            return base +
                rng.uniformInt(0, SimTime(1) << 48);
        return base + rng.uniformInt(0, 100'000);
    case Regime::SameTime:
        return base; // exact tie: FIFO order must hold
    }
    return base;
}

/**
 * Run `ops` randomized operations with mirrored state on both
 * queues, checking every observable on every step.
 */
void
runDifferential(std::uint64_t seed, std::size_t ops)
{
    Rng rng(seed);
    EventQueue real;
    ReferenceEventQueue ref;
    std::vector<LivePair> live;
    // payload -> index in `live`, so pops don't scan the mirror.
    std::unordered_map<std::uint64_t, std::size_t> index;
    auto removeLive = [&live, &index](std::size_t idx) {
        index.erase(live[idx].payload);
        if (idx != live.size() - 1) {
            live[idx] = live.back();
            index[live[idx].payload] = idx;
        }
        live.pop_back();
    };
    std::uint64_t next_payload = 1;
    // Both queues hand popped payloads to these slots.
    std::uint64_t real_popped = 0;
    std::uint64_t ref_popped = 0;
    SimTime base = 0;

    for (std::size_t op = 0; op < ops; ++op) {
        // Cycle regimes in long phases so each pathology gets deep
        // coverage, including the transitions between them.
        Regime regime =
            static_cast<Regime>((op / 30'000) % 4);
        if (op % 10'000 == 0)
            base += 1'000'000; // keep time creeping forward
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " op=" << op);

        double r = rng.uniform();
        bool can_drain = !live.empty();
        if (r < 0.50 || !can_drain) {
            // Schedule a fresh event on both queues. The ~+0.1/op
            // drift grows the population to ~100k, and the cancels
            // along the way trigger heap compactions.
            SimTime when = drawWhen(rng, regime, base);
            std::uint64_t payload = next_payload++;
            EventId rid = real.schedule(
                when, [&real_popped, payload] {
                    real_popped = payload;
                });
            EventId fid = ref.schedule(
                when, [&ref_popped, payload] {
                    ref_popped = payload;
                });
            ASSERT_NE(rid, InvalidEventId);
            index[payload] = live.size();
            live.push_back(LivePair{rid, fid, payload});
        } else if (r < 0.80) {
            // Pop from both; order, time, and payload must agree.
            ASSERT_EQ(real.empty(), ref.empty());
            auto [rwhen, rcb] = real.pop();
            auto [fwhen, fcb] = ref.pop();
            ASSERT_EQ(rwhen, fwhen);
            rcb();
            fcb();
            ASSERT_EQ(real_popped, ref_popped);
            removeLive(index.at(real_popped));
        } else if (r < 0.90) {
            // Cancel a random live event on both queues.
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) -
                                   1));
            ASSERT_TRUE(real.cancel(live[idx].realId));
            ASSERT_TRUE(ref.cancel(live[idx].refId));
            // Double-cancel is a clean false on both.
            ASSERT_FALSE(real.cancel(live[idx].realId));
            ASSERT_FALSE(ref.cancel(live[idx].refId));
            removeLive(idx);
        } else {
            // Reschedule: cancel + schedule at a fresh time, the
            // kernel's timer-adjustment idiom.
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) -
                                   1));
            ASSERT_TRUE(real.cancel(live[idx].realId));
            ASSERT_TRUE(ref.cancel(live[idx].refId));
            SimTime when = drawWhen(rng, regime, base);
            std::uint64_t payload = next_payload++;
            live[idx].realId = real.schedule(
                when, [&real_popped, payload] {
                    real_popped = payload;
                });
            live[idx].refId = ref.schedule(
                when, [&ref_popped, payload] {
                    ref_popped = payload;
                });
            index.erase(live[idx].payload);
            index[payload] = idx;
            live[idx].payload = payload;
        }

        ASSERT_EQ(real.size(), ref.size());
        ASSERT_EQ(real.size(), live.size());
        if (!live.empty()) {
            ASSERT_EQ(real.nextTime(), ref.nextTime());
        }
    }

    // Drain completely: the full residual order must match.
    while (!ref.empty()) {
        ASSERT_FALSE(real.empty());
        auto [rwhen, rcb] = real.pop();
        auto [fwhen, fcb] = ref.pop();
        ASSERT_EQ(rwhen, fwhen);
        rcb();
        fcb();
        ASSERT_EQ(real_popped, ref_popped);
    }
    ASSERT_TRUE(real.empty());
    EXPECT_THROW(real.pop(), util::PanicError);
    EXPECT_THROW(real.nextTime(), util::PanicError);
}

class EventQueueDiff : public ::testing::TestWithParam<std::uint64_t>
{};

/**
 * The headline run: 1M operations per seed across all four regimes
 * (uniform / bursty / far-future / same-timestamp floods), popping
 * and rescheduling throughout. ~250k ops land in each regime.
 */
TEST_P(EventQueueDiff, MillionOpPopOrderMatchesReference)
{
    runDifferential(GetParam(), 1'000'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDiff,
                         ::testing::Values(7, 8675309));

/** Pure same-timestamp flood: 50k ties must pop in FIFO order. */
TEST(EventQueueDiffFocused, SameTimestampFloodPopsFifo)
{
    EventQueue real;
    ReferenceEventQueue ref;
    std::uint64_t real_popped = 0;
    std::uint64_t ref_popped = 0;
    for (std::uint64_t i = 0; i < 50'000; ++i) {
        real.schedule(777, [&real_popped, i] { real_popped = i; });
        ref.schedule(777, [&ref_popped, i] { ref_popped = i; });
    }
    for (std::uint64_t i = 0; i < 50'000; ++i) {
        auto [rwhen, rcb] = real.pop();
        auto [fwhen, fcb] = ref.pop();
        ASSERT_EQ(rwhen, 777);
        ASSERT_EQ(fwhen, 777);
        rcb();
        fcb();
        ASSERT_EQ(real_popped, i); // FIFO among ties
        ASSERT_EQ(ref_popped, i);
    }
    EXPECT_TRUE(real.empty());
}

/** Interleaved pop/schedule at the current time (the run-loop shape). */
TEST(EventQueueDiffFocused, PopScheduleInterleaveAtNow)
{
    EventQueue real;
    ReferenceEventQueue ref;
    Rng rng(99);
    std::uint64_t rp = 0;
    std::uint64_t fp = 0;
    std::uint64_t payload = 1;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t p = payload++;
        real.schedule(0, [&rp, p] { rp = p; });
        ref.schedule(0, [&fp, p] { fp = p; });
    }
    SimTime now = 0;
    while (!ref.empty()) {
        auto [rwhen, rcb] = real.pop();
        auto [fwhen, fcb] = ref.pop();
        ASSERT_EQ(rwhen, fwhen);
        now = rwhen;
        rcb();
        fcb();
        ASSERT_EQ(rp, fp);
        // Simulation callbacks schedule at >= now; mirror that,
        // decaying so the loop terminates.
        if (rng.uniform() < 0.45) {
            std::uint64_t p = payload++;
            SimTime when = now + rng.uniformInt(0, 100);
            real.schedule(when, [&rp, p] { rp = p; });
            ref.schedule(when, [&fp, p] { fp = p; });
        }
    }
    EXPECT_TRUE(real.empty());
}

} // namespace
} // namespace sim
} // namespace pcon
