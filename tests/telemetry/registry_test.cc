#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/registry.h"
#include "util/logging.h"

namespace pcon::telemetry {
namespace {

TEST(Counter, AccumulatesMonotonically)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAddMoveBothWays)
{
    Gauge g;
    g.set(3.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds)
{
    Histogram h({1.0, 2.0, 4.0});
    // Exactly on a bound lands in that bound's bucket.
    h.observe(1.0);  // bucket 0
    h.observe(1.5);  // bucket 1
    h.observe(2.0);  // bucket 1
    h.observe(4.0);  // bucket 2
    h.observe(9.0);  // overflow
    h.observe(-3.0); // below first bound -> bucket 0
    const auto &counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 4.0 + 9.0 - 3.0);
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, StatsAreZeroBeforeAnyObservation)
{
    Histogram h({1.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesInterpolateAndClampToObservedRange)
{
    Histogram h({10, 20, 30, 40, 50});
    for (int v = 1; v <= 50; ++v)
        h.observe(double(v));
    // Extremes clamp to the observed min/max, not bucket edges.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
    // The median of 1..50 sits near 25; interpolation keeps it inside
    // the (20, 30] bucket.
    double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 20.0);
    EXPECT_LE(p50, 30.0);
    // p90 lands in the (40, 50] bucket.
    double p90 = h.quantile(0.9);
    EXPECT_GT(p90, 40.0);
    EXPECT_LE(p90, 50.0);
    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
}

TEST(Histogram, QuantileOfSingleValueIsThatValue)
{
    Histogram h({1.0, 10.0});
    h.observe(7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
}

// The clamping contract pinned in docs/OBSERVABILITY.md: every
// quantile of an empty histogram is 0, and every quantile of a
// single-observation histogram is that observation — even when the
// observation lands in the overflow bucket or below the first bound,
// where naive bucket-edge interpolation would fabricate a value.
TEST(Histogram, EmptyHistogramQuantilesAreZeroForEveryQ)
{
    Histogram h({1.0, 10.0, 100.0});
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 0.0) << "q=" << q;
}

TEST(Histogram, SingleObservationInOverflowBucketIsExact)
{
    Histogram h({1.0, 10.0});
    h.observe(250.0); // beyond the last bound: overflow bucket
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 250.0) << "q=" << q;
    EXPECT_DOUBLE_EQ(h.min(), 250.0);
    EXPECT_DOUBLE_EQ(h.max(), 250.0);
}

TEST(Histogram, SingleObservationBelowTheFirstBoundIsExact)
{
    Histogram h({1.0, 10.0});
    h.observe(-5.0); // below every bound: first bucket
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), -5.0) << "q=" << q;
}

TEST(Histogram, QuantileRejectsOutOfRangeQ)
{
    Histogram h({1.0});
    h.observe(0.5);
    EXPECT_THROW(h.quantile(-0.1), util::FatalError);
    EXPECT_THROW(h.quantile(1.1), util::FatalError);
}

TEST(Registry, SameNameSameKindReturnsTheSameInstrument)
{
    Registry r;
    Counter &a = r.counter("kernel.context_switches");
    Counter &b = r.counter("kernel.context_switches");
    EXPECT_EQ(&a, &b);
    Histogram &h1 = r.histogram("lat", {1.0, 2.0});
    Histogram &h2 = r.histogram("lat", {1.0, 2.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(r.size(), 2u);
}

TEST(Registry, KindCollisionIsFatal)
{
    Registry r;
    r.counter("x");
    EXPECT_THROW(r.gauge("x"), util::FatalError);
    EXPECT_THROW(r.histogram("x", {1.0}), util::FatalError);
}

TEST(Registry, HistogramBoundMismatchIsFatal)
{
    Registry r;
    r.histogram("lat", {1.0, 2.0});
    EXPECT_THROW(r.histogram("lat", {1.0, 3.0}), util::FatalError);
    EXPECT_THROW(r.histogram("lat", {1.0}), util::FatalError);
}

TEST(Registry, InvalidMetricNamesAreRejected)
{
    EXPECT_TRUE(Registry::validName("kernel.context_switches"));
    EXPECT_TRUE(Registry::validName("a0._"));
    EXPECT_FALSE(Registry::validName(""));
    EXPECT_FALSE(Registry::validName("Kernel.switches"));
    EXPECT_FALSE(Registry::validName("kernel switches"));
    EXPECT_FALSE(Registry::validName("kernel-switches"));
    Registry r;
    // pcon-lint: allow(determinism) deliberately invalid name under test
    EXPECT_THROW(r.counter("BadName"), util::FatalError);
    // pcon-lint: allow(determinism) deliberately invalid name under test
    EXPECT_THROW(r.gauge("no spaces"), util::FatalError);
}

TEST(Registry, EntriesIterateInNameSortedOrder)
{
    Registry r;
    r.counter("zeta");
    r.gauge("alpha");
    r.histogram("mid", {1.0});
    auto entries = r.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].name, "alpha");
    EXPECT_EQ(entries[0].kind, InstrumentKind::Gauge);
    EXPECT_EQ(entries[1].name, "mid");
    EXPECT_EQ(entries[1].kind, InstrumentKind::Histogram);
    EXPECT_EQ(entries[2].name, "zeta");
    EXPECT_EQ(entries[2].kind, InstrumentKind::Counter);
    EXPECT_TRUE(r.has("mid"));
    EXPECT_FALSE(r.has("missing"));
    EXPECT_EQ(r.kindOf("zeta"), InstrumentKind::Counter);
    EXPECT_THROW(r.kindOf("missing"), util::FatalError);
}

TEST(Registry, CollectorsRunInRegistrationOrder)
{
    Registry r;
    Gauge &g = r.gauge("g");
    r.addCollector([&] { g.set(1.0); });
    r.addCollector([&] { g.set(g.value() + 1.0); });
    r.collect();
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
    r.collect();
    EXPECT_DOUBLE_EQ(g.value(), 2.0); // set(1) then +1 again
}

} // namespace
} // namespace pcon::telemetry
