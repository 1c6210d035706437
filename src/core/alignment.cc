#include "alignment.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pcon {
namespace core {

namespace {

/**
 * Correlation of measurement[i] against model[i - d] over the
 * overlapping index range, restricted to indices whose mask entry is
 * true (null mask = all valid). Centered form returns the Pearson
 * coefficient; raw form returns Equation 4's plain product sum.
 * `pairs` receives the number of participating index pairs.
 */
double
correlationAtDelay(const std::vector<double> &measurement,
                   const std::vector<bool> *valid,
                   const std::vector<double> &model, long d,
                   bool centered, std::size_t *pairs)
{
    long m_size = static_cast<long>(measurement.size());
    long k_size = static_cast<long>(model.size());
    long lo = std::max<long>(0, d);
    long hi = std::min(m_size, k_size + d);
    auto ok = [&](long i) {
        return valid == nullptr ||
            (*valid)[static_cast<std::size_t>(i)];
    };
    // One pass counts the pairs and sums the products (raw form) or
    // each series (centered form, for the means).
    long count = 0;
    double sum = 0.0, mean_a = 0.0, mean_b = 0.0;
    for (long i = lo; i < hi; ++i) {
        if (!ok(i))
            continue;
        ++count;
        if (centered) {
            mean_a += measurement[i];
            mean_b += model[i - d];
        } else {
            sum += measurement[i] * model[i - d];
        }
    }
    *pairs = static_cast<std::size_t>(count);
    if (count < 2)
        return 0.0;

    double n = static_cast<double>(count);
    // Normalize by overlap length so short overlaps at the scan edges
    // are not unfairly favored or penalized.
    if (!centered)
        return sum / n;

    mean_a /= n;
    mean_b /= n;
    double cov = 0.0, var_a = 0.0, var_b = 0.0;
    for (long i = lo; i < hi; ++i) {
        if (!ok(i))
            continue;
        double da = measurement[i] - mean_a;
        double db = model[i - d] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if (var_a <= 0.0 || var_b <= 0.0)
        return 0.0;
    return cov / std::sqrt(var_a * var_b);
}

/** Shared scan loop of the dense and sparse entry points. */
AlignmentScan
scanAlignmentImpl(const std::vector<double> &measurement,
                  const std::vector<bool> *valid,
                  const std::vector<double> &model, sim::SimTime period,
                  long min_delay, long max_delay, bool centered)
{
    AlignmentScan scan;
    scan.period = period;
    scan.minDelaySamples = min_delay;
    scan.correlation.reserve(
        static_cast<std::size_t>(max_delay - min_delay + 1));

    bool first = true;
    for (long d = min_delay; d <= max_delay; ++d) {
        std::size_t pairs = 0;
        double corr = correlationAtDelay(measurement, valid, model, d,
                                         centered, &pairs);
        scan.correlation.push_back(corr);
        if (first || corr > scan.bestCorrelation) {
            scan.bestCorrelation = corr;
            scan.bestDelaySamples = d;
            scan.pairsAtBest = pairs;
            first = false;
        }
    }
    scan.bestDelay = scan.bestDelaySamples * period;
    if (centered && scan.pairsAtBest >= 4)
        scan.confidence =
            std::min(1.0, std::max(0.0, scan.bestCorrelation));
    return scan;
}

} // namespace

AlignmentScan
scanAlignment(const std::vector<double> &measurement,
              const std::vector<double> &model, sim::SimTime period,
              long min_delay, long max_delay, bool centered)
{
    util::fatalIf(period <= 0, "alignment period must be positive");
    util::fatalIf(min_delay > max_delay,
                  "empty alignment delay range");
    util::fatalIf(measurement.size() < 2 || model.size() < 2,
                  "alignment needs at least two samples per series");

    return scanAlignmentImpl(measurement, nullptr, model, period,
                             min_delay, max_delay, centered);
}

AlignmentScan
scanAlignmentSparse(const std::vector<double> &measurement,
                    const std::vector<bool> &valid,
                    const std::vector<double> &model,
                    sim::SimTime period, long min_delay, long max_delay,
                    bool centered)
{
    util::fatalIf(period <= 0, "alignment period must be positive");
    util::fatalIf(min_delay > max_delay,
                  "empty alignment delay range");
    util::fatalIf(valid.size() != measurement.size(),
                  "alignment mask length mismatch");
    util::fatalIf(measurement.size() < 2 || model.size() < 2,
                  "alignment needs at least two samples per series");
    return scanAlignmentImpl(measurement, &valid, model, period,
                             min_delay, max_delay, centered);
}

sim::SimTime
estimateDelay(const std::vector<double> &measurement,
              const std::vector<double> &model, sim::SimTime period,
              long max_delay_samples)
{
    AlignmentScan scan = scanAlignment(measurement, model, period, 0,
                                       max_delay_samples, true);
    return scan.bestDelay;
}

AlignmentScan
scanAlignmentResampled(const std::vector<double> &measurement,
                       sim::SimTime measurement_start,
                       sim::SimTime measurement_period,
                       const std::vector<double> &model,
                       sim::SimTime model_start,
                       sim::SimTime model_period,
                       sim::SimTime min_delay, sim::SimTime max_delay)
{
    util::fatalIf(model_period <= 0 || measurement_period <= 0,
                  "alignment periods must be positive");
    util::fatalIf(measurement_period % model_period != 0,
                  "the fine period must divide the coarse period");
    util::fatalIf(min_delay > max_delay,
                  "empty alignment delay range");
    util::fatalIf(measurement.size() < 4 || model.size() < 4,
                  "alignment needs at least four samples per series");

    long window = measurement_period / model_period;

    // Prefix sums of the fine series for O(1) interval averages.
    std::vector<double> prefix(model.size() + 1, 0.0);
    for (std::size_t i = 0; i < model.size(); ++i)
        prefix[i + 1] = prefix[i] + model[i];
    // Average of the fine series over the window ENDING at absolute
    // time `end` (window = one coarse measurement interval).
    auto window_average = [&](sim::SimTime end, double *out) {
        long hi = static_cast<long>((end - model_start) /
                                    model_period);
        long lo = hi - window;
        if (lo < 0 || hi >= static_cast<long>(model.size()))
            return false;
        *out = (prefix[hi + 1] - prefix[lo + 1]) /
            static_cast<double>(window);
        return true;
    };

    AlignmentScan scan;
    scan.period = model_period;
    scan.minDelaySamples = min_delay / model_period;
    bool first = true;
    for (sim::SimTime d = min_delay; d <= max_delay;
         d += model_period) {
        std::vector<double> xs, ys;
        for (std::size_t i = 0; i < measurement.size(); ++i) {
            sim::SimTime arrived = measurement_start +
                static_cast<sim::SimTime>(i) * measurement_period;
            double avg = 0;
            if (!window_average(arrived - d, &avg))
                continue;
            xs.push_back(measurement[i]);
            ys.push_back(avg);
        }
        double corr = 0.0;
        if (xs.size() >= 3) {
            double mx = 0, my = 0;
            for (std::size_t i = 0; i < xs.size(); ++i) {
                mx += xs[i];
                my += ys[i];
            }
            mx /= static_cast<double>(xs.size());
            my /= static_cast<double>(ys.size());
            double cov = 0, vx = 0, vy = 0;
            for (std::size_t i = 0; i < xs.size(); ++i) {
                cov += (xs[i] - mx) * (ys[i] - my);
                vx += (xs[i] - mx) * (xs[i] - mx);
                vy += (ys[i] - my) * (ys[i] - my);
            }
            if (vx > 0 && vy > 0)
                corr = cov / std::sqrt(vx * vy);
        }
        scan.correlation.push_back(corr);
        if (first || corr > scan.bestCorrelation) {
            scan.bestCorrelation = corr;
            scan.bestDelay = d;
            scan.bestDelaySamples = d / model_period;
            scan.pairsAtBest = xs.size();
            first = false;
        }
    }
    if (scan.pairsAtBest >= 4)
        scan.confidence =
            std::min(1.0, std::max(0.0, scan.bestCorrelation));
    return scan;
}

} // namespace core
} // namespace pcon
