#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/audit.h"
#include "util/logging.h"

namespace pcon::sim {
namespace {

TEST(Simulation, ClockAdvancesWithEvents)
{
    Simulation s;
    std::vector<SimTime> seen;
    s.schedule(usec(5), [&] { seen.push_back(s.now()); });
    s.schedule(usec(1), [&] { seen.push_back(s.now()); });
    std::uint64_t n = s.run();
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(seen, (std::vector<SimTime>{usec(1), usec(5)}));
    EXPECT_EQ(s.now(), usec(5));
}

TEST(Simulation, EventsScheduleMoreEvents)
{
    Simulation s;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        if (count < 10)
            s.schedule(msec(1), tick);
    };
    s.schedule(msec(1), tick);
    s.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(s.now(), msec(10));
}

TEST(Simulation, RunHonorsHorizonAndAdvancesClockToIt)
{
    Simulation s;
    int count = 0;
    s.schedule(msec(1), [&] { ++count; });
    s.schedule(msec(10), [&] { ++count; });
    s.run(msec(5));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(s.now(), msec(5));
    // The remaining event still fires in a later run.
    s.run(msec(20));
    EXPECT_EQ(count, 2);
    EXPECT_EQ(s.now(), msec(20));
}

TEST(Simulation, EventExactlyAtHorizonFires)
{
    Simulation s;
    bool fired = false;
    s.schedule(msec(5), [&] { fired = true; });
    s.run(msec(5));
    EXPECT_TRUE(fired);
}

TEST(Simulation, NegativeDelayPanics)
{
    Simulation s;
    EXPECT_THROW(s.schedule(-1, [] {}), util::PanicError);
}

TEST(Simulation, ScheduleAtInThePastPanics)
{
    Simulation s;
    s.schedule(msec(2), [] {});
    s.run();
    EXPECT_THROW(s.scheduleAt(msec(1), [] {}), util::PanicError);
}

TEST(Simulation, CancelStopsPendingEvent)
{
    Simulation s;
    bool fired = false;
    EventId id = s.schedule(msec(1), [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulation, StepExecutesExactlyOne)
{
    Simulation s;
    int count = 0;
    s.schedule(1, [&] { ++count; });
    s.schedule(2, [&] { ++count; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(count, 2);
}

#if PCON_AUDIT_LEVEL >= 1
TEST(Simulation, ScheduleOffTheOwnerThreadPanics)
{
    // The single-threaded contract: only the constructing thread may
    // drive the simulation.
    Simulation s;
    bool threw = false;
    std::thread other([&] {
        try {
            s.schedule(usec(1), [] {});
        } catch (const util::PanicError &) {
            threw = true;
        }
    });
    other.join();
    EXPECT_TRUE(threw);
    EXPECT_TRUE(s.idle());
}
#endif

TEST(SimTimeHelpers, UnitConversions)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(msec(1), 1000000);
    EXPECT_EQ(sec(1), 1000000000);
    EXPECT_EQ(secF(0.5), 500000000);
    EXPECT_DOUBLE_EQ(toSeconds(sec(3)), 3.0);
    EXPECT_DOUBLE_EQ(toMillis(msec(7)), 7.0);
}

} // namespace
} // namespace pcon::sim
