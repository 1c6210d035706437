#include "stats.h"

#include <algorithm>
#include <cmath>

#include "logging.h"

namespace pcon {
namespace util {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    std::size_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double mean = mean_ + delta * static_cast<double>(other.count_) /
        static_cast<double>(n);
    m2_ = m2_ + other.m2_ + delta * delta *
        static_cast<double>(count_) * static_cast<double>(other.count_) /
        static_cast<double>(n);
    mean_ = mean;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = n;
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    fatalIf(bins == 0, "Histogram needs at least one bin");
    fatalIf(hi <= lo, "Histogram range is empty: [", lo, ", ", hi, ")");
}

void
Histogram::add(double x)
{
    // NaN poisons the bin computation (floor(NaN) cast to long is
    // undefined) and inf would silently clamp to an edge bin.
    fatalIf(!std::isfinite(x), "Histogram::add of non-finite value");
    double pos = (x - lo_) / (hi_ - lo_) *
        static_cast<double>(counts_.size());
    long bin = static_cast<long>(std::floor(pos));
    bin = std::clamp<long>(bin, 0,
                           static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
}

double
Histogram::binCenter(std::size_t i) const
{
    double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * width;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
        static_cast<double>(total_);
}

double
quantile(std::vector<double> values, double q)
{
    fatalIf(values.empty(), "quantile of an empty sample");
    fatalIf(q < 0.0 || q > 1.0, "quantile q out of [0,1]: ", q);
    for (double v : values)
        // NaN violates std::sort's strict weak ordering (undefined
        // behaviour), so order statistics are meaningless.
        fatalIf(std::isnan(v), "quantile over a sample with NaN");
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    // Exact order statistic: skip the interpolation so an infinite
    // sample is returned as-is instead of producing inf * 0 = NaN.
    if (frac == 0.0)
        return values[lo];
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

} // namespace util
} // namespace pcon
