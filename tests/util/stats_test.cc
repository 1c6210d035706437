#include <cmath>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/stats.h"

namespace pcon::util {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, MomentsMatchClosedForm)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance with n-1 denominator: SS=32, 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsCombinedStream)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = 0.1 * i * i - 3.0 * i;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(3.0);
    RunningStat a_copy = a;
    a.merge(b);                 // merge empty into non-empty
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a_copy);            // merge non-empty into empty
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStat, ResetForgetsEverything)
{
    RunningStat s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Histogram, RejectsDegenerateConfigs)
{
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(2.0, 1.0, 4), FatalError);
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);    // bin 0
    h.add(3.0);    // bin 1
    h.add(9.99);   // bin 4
    h.add(-5.0);   // clamped to bin 0
    h.add(25.0);   // clamped to bin 4
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 1.0);
    EXPECT_DOUBLE_EQ(h.binCenter(4), 9.0);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.4);
}

TEST(RunningStat, SingleObservation)
{
    RunningStat s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.sum(), 7.5);
    EXPECT_EQ(s.variance(), 0.0); // n-1 denominator undefined at n=1
    EXPECT_DOUBLE_EQ(s.min(), 7.5);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(Histogram, RejectsNonFiniteObservations)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_THROW(h.add(std::nan("")), FatalError);
    EXPECT_THROW(h.add(INFINITY), FatalError);
    EXPECT_THROW(h.add(-INFINITY), FatalError);
    EXPECT_EQ(h.total(), 0u); // rejected values are not counted
}

TEST(Histogram, EmptyHistogramFractionsAndRows)
{
    Histogram h(0.0, 1.0, 3);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics)
{
    std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
    EXPECT_THROW(quantile({}, 0.5), FatalError);
    EXPECT_THROW(quantile(v, 1.5), FatalError);
}

TEST(Quantile, SingleElementIsEveryQuantile)
{
    std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(quantile(one, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(quantile(one, 0.37), 42.0);
    EXPECT_DOUBLE_EQ(quantile(one, 1.0), 42.0);
}

TEST(Quantile, RejectsNaNSamples)
{
    // NaN breaks std::sort's strict weak ordering; fail loudly
    // instead of returning an arbitrary order statistic.
    std::vector<double> v{1.0, std::nan(""), 2.0};
    EXPECT_THROW(quantile(v, 0.5), FatalError);
    // Infinities order fine and remain legal extreme samples.
    std::vector<double> inf{1.0, INFINITY, 2.0};
    EXPECT_DOUBLE_EQ(quantile(inf, 0.0), 1.0);
    EXPECT_EQ(quantile(inf, 1.0), INFINITY);
}

} // namespace
} // namespace pcon::util
