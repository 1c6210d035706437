#include "calibration.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "linalg/least_squares.h"
#include "util/logging.h"

namespace pcon {
namespace core {

// Calibrator::fit's design is the intercept plus at most every metric.
static_assert(NumMetrics + 1 <= linalg::kMaxFeatures,
              "the solver's fixed-width kernels must cover the "
              "calibration design");

namespace {

/** Columns used by a model kind: intercept + active features. */
std::vector<Metric>
featureColumns(ModelKind kind)
{
    std::vector<Metric> cols;
    for (std::size_t i = 0; i < NumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        if (m == Metric::ChipShare && kind == ModelKind::CoreEventsOnly)
            continue;
        cols.push_back(m);
    }
    return cols;
}

} // namespace

void
Calibrator::add(const CalibrationSample &sample)
{
    samples_.push_back(sample);
}

void
Calibrator::add(const std::vector<CalibrationSample> &samples)
{
    samples_.insert(samples_.end(), samples.begin(), samples.end());
}

LinearPowerModel
Calibrator::fit(ModelKind kind, double *rmse_w) const
{
    std::vector<Metric> cols = featureColumns(kind);
    util::fatalIf(samples_.size() < cols.size() + 1,
                  "calibration needs at least ", cols.size() + 1,
                  " samples, have ", samples_.size());

    linalg::Matrix design;
    linalg::Vector target;
    for (const CalibrationSample &s : samples_) {
        linalg::Vector row;
        row.push_back(1.0); // intercept = idle power
        for (Metric m : cols)
            row.push_back(s.metrics.get(m));
        design.appendRow(row);
        target.push_back(s.measuredFullW);
    }

    linalg::LsqResult fit_result =
        linalg::solveNonNegativeLeastSquares(design, target);
    if (rmse_w != nullptr)
        *rmse_w = linalg::residualRmse(design, target,
                                       fit_result.coefficients);

    LinearPowerModel model(kind);
    model.setIdleW(fit_result.coefficients[0]);
    for (std::size_t i = 0; i < cols.size(); ++i)
        model.setCoefficient(cols[i], fit_result.coefficients[i + 1]);
    return model;
}

CalibrationReport
evaluateCalibration(const LinearPowerModel &model,
                    const std::vector<CalibrationSample> &samples,
                    const std::vector<std::string> &labels)
{
    util::fatalIf(samples.size() != labels.size(),
                  "need one label per calibration sample");
    util::fatalIf(samples.empty(), "no samples to evaluate");

    struct Accumulator
    {
        std::size_t n = 0;
        double sum = 0;
        double sumSq = 0;
        double worst = 0;
    };
    std::map<std::string, Accumulator> groups;
    Accumulator overall;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        double residual = model.estimateFullW(samples[i].metrics) -
            samples[i].measuredFullW;
        for (Accumulator *acc : {&groups[labels[i]], &overall}) {
            ++acc->n;
            acc->sum += residual;
            acc->sumSq += residual * residual;
            acc->worst = std::max(acc->worst, std::abs(residual));
        }
    }

    CalibrationReport report;
    report.rmseW = std::sqrt(overall.sumSq /
                             static_cast<double>(overall.n));
    report.worstAbsW = overall.worst;
    for (const auto &[label, acc] : groups) {
        CalibrationReport::GroupStats stats;
        stats.label = label;
        stats.samples = acc.n;
        stats.meanResidualW = acc.sum / static_cast<double>(acc.n);
        stats.rmseW =
            std::sqrt(acc.sumSq / static_cast<double>(acc.n));
        stats.worstAbsW = acc.worst;
        report.groups.push_back(std::move(stats));
    }
    std::sort(report.groups.begin(), report.groups.end(),
              [](const CalibrationReport::GroupStats &a,
                 const CalibrationReport::GroupStats &b) {
                  return a.rmseW > b.rmseW;
              });
    report.worstGroup = report.groups.front().label;
    return report;
}

Metrics
Calibrator::maxObserved() const
{
    Metrics max;
    for (const CalibrationSample &s : samples_)
        for (std::size_t i = 0; i < NumMetrics; ++i) {
            Metric m = static_cast<Metric>(i);
            max.set(m, std::max(max.get(m), s.metrics.get(m)));
        }
    return max;
}

} // namespace core
} // namespace pcon
