/**
 * @file
 * Small statistics helpers shared by the simulator and the
 * experiments: running moments, quantiles and histograms.
 */

#ifndef PCON_UTIL_STATS_H
#define PCON_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace pcon {
namespace util {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations added. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /** Sample variance (n-1 denominator); 0 with <2 observations. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation; 0 when empty. */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest observation; 0 when empty. */
    double max() const { return count_ ? max_ : 0.0; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Forget all observations. */
    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bin histogram over [lo, hi); values outside the range land in
 * the first or last bin. Used for the request power/energy
 * distribution figures.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first bin.
     * @param hi Upper edge of the last bin (must exceed lo).
     * @param bins Number of bins (>= 1).
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one observation; fatal() on NaN or infinity. */
    void add(double x);

    /** Number of bins. */
    std::size_t bins() const { return counts_.size(); }

    /** Count in bin i. */
    std::size_t binCount(std::size_t i) const { return counts_.at(i); }

    /** Center value of bin i. */
    double binCenter(std::size_t i) const;

    /** Total observations. */
    std::size_t total() const { return total_; }

    /** Fraction of observations in bin i (0 when empty). */
    double binFraction(std::size_t i) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

/**
 * Exact quantile of a sample set (q in [0,1]); sorts a copy.
 * fatal() on an empty sample, q outside [0,1], or NaN elements.
 */
double quantile(std::vector<double> values, double q);

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_STATS_H
