/**
 * @file
 * Property sweeps over the modeling math: persistence round-trips
 * for random models, NNLS fits dominated by physical constraints,
 * and prediction identities that must hold for any profile set.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "core/model_store.h"
#include "core/prediction.h"
#include "linalg/least_squares.h"
#include "sim/rng.h"
#include "util/logging.h"

namespace pcon::core {
namespace {

class ModelRoundTripTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ModelRoundTripTest, RandomModelsPersistExactly)
{
    sim::Rng rng(GetParam());
    ModelKind kind = rng.chance(0.5) ? ModelKind::WithChipShare
                                     : ModelKind::CoreEventsOnly;
    LinearPowerModel model(kind);
    model.setIdleW(rng.uniform(0.0, 300.0));
    for (std::size_t i = 0; i < NumMetrics; ++i)
        model.setCoefficient(static_cast<Metric>(i),
                             rng.uniform(0.0, 500.0));

    std::stringstream buffer;
    saveModel(model, buffer);
    LinearPowerModel loaded = loadModel(buffer);
    EXPECT_EQ(loaded.kind(), model.kind());
    EXPECT_DOUBLE_EQ(loaded.idleW(), model.idleW());
    for (std::size_t i = 0; i < NumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_DOUBLE_EQ(loaded.coefficient(m),
                         model.coefficient(m));
    }
    // And the loaded model estimates identically.
    Metrics probe;
    probe.set(Metric::Core, rng.uniform(0.0, 4.0));
    probe.set(Metric::Mem, rng.uniform(0.0, 0.05));
    probe.set(Metric::ChipShare, rng.uniform(0.0, 2.0));
    EXPECT_DOUBLE_EQ(loaded.estimateFullW(probe),
                     model.estimateFullW(probe));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 11));

class NnlsPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(NnlsPropertyTest, FitsNonNegativeAndNoWorseThanZero)
{
    // For any data, NNLS coefficients are non-negative and the fit
    // is at least as good as the all-zero model.
    sim::Rng rng(GetParam());
    std::size_t features = 2 + GetParam() % 5;
    linalg::Matrix a;
    linalg::Vector b;
    double zero_sse = 0;
    for (int i = 0; i < 120; ++i) {
        linalg::Vector row;
        for (std::size_t f = 0; f < features; ++f)
            row.push_back(rng.uniform(0.0, 2.0));
        a.appendRow(row);
        double target = rng.uniform(-5.0, 30.0);
        b.push_back(target);
        zero_sse += target * target;
    }
    linalg::LsqResult fit = linalg::solveNonNegativeLeastSquares(a, b);
    ASSERT_EQ(fit.coefficients.size(), features);
    for (double c : fit.coefficients)
        EXPECT_GE(c, 0.0);
    double zero_rmse = std::sqrt(zero_sse / 120.0);
    EXPECT_LE(linalg::residualRmse(a, b, fit.coefficients),
              zero_rmse + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsPropertyTest,
                         ::testing::Range<std::uint64_t>(20, 30));

class PredictionPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PredictionPropertyTest, PredictionIdentitiesHold)
{
    sim::Rng rng(GetParam());
    // Random profile set.
    ProfileTable profiles;
    Composition original;
    int types = 2 + static_cast<int>(GetParam() % 4);
    for (int t = 0; t < types; ++t) {
        RequestRecord r;
        r.type = "t" + std::to_string(t);
        r.cpuEnergyJ = util::Joules(rng.uniform(0.05, 2.0));
        r.cpuTimeNs = rng.uniform(2e6, 60e6);
        profiles.add(r);
        original[r.type] = rng.uniform(5.0, 80.0);
    }
    ObservedWorkload observed;
    observed.composition = original;
    observed.activePowerW = util::Watts(rng.uniform(20.0, 80.0));
    observed.cpuUtilization = rng.uniform(0.3, 0.9);
    CompositionPredictor predictor(profiles, observed, 4);

    // Identity 1: predictions scale linearly with rate.
    Composition doubled;
    for (auto &[type, rate] : original)
        doubled[type] = 2.0 * rate;
    EXPECT_NEAR(predictor.predictContainers(doubled),
                2.0 * predictor.predictContainers(original), 1e-9);
    EXPECT_NEAR(predictor.predictRateProportional(doubled),
                2.0 * predictor.predictRateProportional(original),
                1e-9);
    EXPECT_NEAR(predictor.predictUtilization(doubled),
                2.0 * predictor.predictUtilization(original), 1e-9);

    // Identity 2: the rate baseline reproduces the observed power at
    // the observed composition.
    EXPECT_NEAR(predictor.predictRateProportional(original),
                observed.activePowerW.value(), 1e-9);

    // Identity 3: containers prediction equals the profile-weighted
    // energy rate.
    double expected = 0;
    for (auto &[type, rate] : original)
        expected += rate * profiles.profile(type).meanEnergyJ.value();
    EXPECT_NEAR(predictor.predictContainers(original), expected,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictionPropertyTest,
                         ::testing::Range<std::uint64_t>(40, 48));

} // namespace
} // namespace pcon::core
