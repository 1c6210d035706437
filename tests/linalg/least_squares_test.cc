#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/least_squares.h"
#include "sim/rng.h"
#include "util/logging.h"

namespace pcon::linalg {
namespace {

TEST(LeastSquares, RecoversExactLinearSystem)
{
    // y = 2 + 3 x1 - 0.5 x2, no noise.
    Matrix a;
    Vector b;
    for (int i = 0; i < 10; ++i) {
        double x1 = i, x2 = i * i * 0.1;
        a.appendRow({1.0, x1, x2});
        b.push_back(2.0 + 3.0 * x1 - 0.5 * x2);
    }
    LsqResult fit = solveLeastSquares(a, b);
    ASSERT_EQ(fit.coefficients.size(), 3u);
    EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[2], -0.5, 1e-9);
    EXPECT_NEAR(fit.rmse, 0.0, 1e-9);
    EXPECT_FALSE(fit.rankDeficient);
}

TEST(LeastSquares, NoisyFitIsCloseAndRmsePositive)
{
    sim::Rng rng(7);
    Matrix a;
    Vector b;
    for (int i = 0; i < 400; ++i) {
        double x1 = rng.uniform(0.0, 4.0);
        double x2 = rng.uniform(-1.0, 1.0);
        a.appendRow({1.0, x1, x2});
        b.push_back(1.5 + 0.8 * x1 + 2.0 * x2 +
                    rng.normal(0.0, 0.05));
    }
    LsqResult fit = solveLeastSquares(a, b);
    EXPECT_NEAR(fit.coefficients[0], 1.5, 0.05);
    EXPECT_NEAR(fit.coefficients[1], 0.8, 0.03);
    EXPECT_NEAR(fit.coefficients[2], 2.0, 0.03);
    EXPECT_GT(fit.rmse, 0.0);
    EXPECT_LT(fit.rmse, 0.1);
}

TEST(LeastSquares, RankDeficientFallsBackToRidge)
{
    // Second column is an exact copy of the first.
    Matrix a;
    Vector b;
    for (int i = 1; i <= 6; ++i) {
        a.appendRow({double(i), double(i)});
        b.push_back(4.0 * i);
    }
    LsqResult fit = solveLeastSquares(a, b);
    EXPECT_TRUE(fit.rankDeficient);
    // Ridge splits the weight; predictions should still be accurate.
    EXPECT_NEAR(fit.coefficients[0] + fit.coefficients[1], 4.0, 1e-3);
    EXPECT_LT(fit.rmse, 1e-2);
}

TEST(LeastSquares, ShapeErrorsAreFatal)
{
    Matrix a(3, 2);
    Vector b{1.0, 2.0};
    EXPECT_THROW(solveLeastSquares(a, b), util::FatalError);
    Matrix under(1, 2);
    Vector b1{1.0};
    EXPECT_THROW(solveLeastSquares(under, b1), util::FatalError);
    Matrix empty(3, 0);
    Vector b3{1.0, 2.0, 3.0};
    EXPECT_THROW(solveLeastSquares(empty, b3), util::FatalError);
}

TEST(WeightedLeastSquares, ZeroWeightIgnoresSample)
{
    // Two clean samples fix the line; one wild outlier has weight 0.
    Matrix a;
    a.appendRow({1.0, 0.0});
    a.appendRow({1.0, 1.0});
    a.appendRow({1.0, 2.0});
    Vector b{1.0, 3.0, 100.0};
    Vector w{1.0, 1.0, 0.0};
    LsqResult fit = solveWeightedLeastSquares(a, b, w);
    EXPECT_NEAR(fit.coefficients[0], 1.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-9);
}

TEST(WeightedLeastSquares, HeavyWeightDominates)
{
    Matrix a;
    Vector b;
    // Two inconsistent clusters: y = x and y = 2x.
    for (int i = 1; i <= 5; ++i) {
        a.appendRow({double(i)});
        b.push_back(double(i));
        a.appendRow({double(i)});
        b.push_back(2.0 * i);
    }
    Vector w(10, 1.0);
    for (std::size_t i = 0; i < 10; i += 2)
        w[i] = 1e6; // favor y = x samples
    LsqResult fit = solveWeightedLeastSquares(a, b, w);
    EXPECT_NEAR(fit.coefficients[0], 1.0, 1e-3);
}

TEST(WeightedLeastSquares, NegativeWeightIsFatal)
{
    Matrix a;
    a.appendRow({1.0});
    a.appendRow({2.0});
    Vector b{1.0, 2.0};
    Vector w{1.0, -1.0};
    EXPECT_THROW(solveWeightedLeastSquares(a, b, w), util::FatalError);
}

TEST(NonNegativeLeastSquares, ClampsNegativeCoefficients)
{
    // Optimal unconstrained fit has a negative coefficient on x2.
    sim::Rng rng(11);
    Matrix a;
    Vector b;
    for (int i = 0; i < 200; ++i) {
        double x1 = rng.uniform(0.0, 1.0);
        double x2 = rng.uniform(0.0, 1.0);
        a.appendRow({x1, x2});
        b.push_back(2.0 * x1 - 0.7 * x2);
    }
    LsqResult fit = solveNonNegativeLeastSquares(a, b);
    EXPECT_GE(fit.coefficients[0], 0.0);
    EXPECT_GE(fit.coefficients[1], 0.0);
    EXPECT_NEAR(fit.coefficients[1], 0.0, 1e-9);
}

TEST(NonNegativeLeastSquares, AgreesWithUnconstrainedWhenPositive)
{
    Matrix a;
    Vector b;
    for (int i = 0; i < 20; ++i) {
        double x1 = 0.1 * i, x2 = std::sin(i);
        a.appendRow({1.0, x1, x2 * x2});
        b.push_back(0.5 + 1.5 * x1 + 2.5 * x2 * x2);
    }
    LsqResult nn = solveNonNegativeLeastSquares(a, b);
    LsqResult un = solveLeastSquares(a, b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(nn.coefficients[i], un.coefficients[i], 1e-8);
}

TEST(Ridge, ShrinksTowardZeroAsLambdaGrows)
{
    Matrix a;
    Vector b;
    for (int i = 1; i <= 8; ++i) {
        a.appendRow({double(i)});
        b.push_back(3.0 * i);
    }
    LsqResult small = solveRidge(a, b, 1e-9);
    LsqResult big = solveRidge(a, b, 1e6);
    EXPECT_NEAR(small.coefficients[0], 3.0, 1e-6);
    EXPECT_LT(big.coefficients[0], 1.0);
    EXPECT_THROW(solveRidge(a, b, 0.0), util::FatalError);
}

// ---------------------------------------------------------------------
// Exact-output pins. The solver's cost may change but its output may
// not (docs/PERFORMANCE.md "Exact refits"): each test below compares
// the IEEE-754 bit patterns of every result field with values recorded
// from the column-at-a-time Householder solver. A sum taken in a
// different order generally changes some of these bits.

std::string
hexBits(double x)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << std::bit_cast<std::uint64_t>(x);
    return os.str();
}

struct PinnedFit
{
    std::vector<std::string> coefficients;
    std::string rmse;
    bool rankDeficient = false;
};

void
expectBitIdentical(const LsqResult &fit, const PinnedFit &pin)
{
    ASSERT_EQ(fit.coefficients.size(), pin.coefficients.size());
    for (std::size_t i = 0; i < pin.coefficients.size(); ++i)
        EXPECT_EQ(hexBits(fit.coefficients[i]), pin.coefficients[i])
            << "coefficient " << i;
    EXPECT_EQ(hexBits(fit.rmse), pin.rmse) << "rmse";
    EXPECT_EQ(fit.rankDeficient, pin.rankDeficient) << "rankDeficient";
}

struct Design
{
    Matrix a;
    Vector b;
};

/**
 * The shape of one online refit at its steady state: 576 offline
 * calibration samples plus a full 4,096-sample online ring
 * (RecalibratorConfig::maxOnlineSamples), 8 metric columns at
 * machine-level magnitudes (core and instruction rates summed over 8
 * cores, cache/memory rates per cycle, disk/net busy fractions).
 */
Design
refitShapedDesign()
{
    constexpr std::size_t Offline = 576, Online = 4096, Cols = 8;
    const double scale[Cols] = {8.0, 12.0, 1.0, 0.2, 0.05, 4.0, 1.0, 1.0};
    const double watts[Cols] = {8.0, 1.5, 3.0, 70.0, 205.0, 5.6, 4.0, 3.0};
    sim::Rng rng(2013);
    Design d{Matrix(Offline + Online, Cols), Vector(Offline + Online)};
    for (std::size_t r = 0; r < d.a.rows(); ++r) {
        // Calibration sweeps each metric's whole range; the online
        // workload sits in a narrower, busier band.
        double lo = r < Offline ? 0.0 : 0.3;
        double hi = r < Offline ? 1.0 : 0.8;
        double active_w = 0.0;
        for (std::size_t c = 0; c < Cols; ++c) {
            d.a(r, c) = scale[c] * rng.uniform(lo, hi);
            active_w += watts[c] * d.a(r, c);
        }
        d.b[r] = active_w + rng.uniform(-1.0, 1.0);
    }
    return d;
}

/** A minimal system: n + 1 samples for n = 4 features. */
Design
minimalDesign()
{
    sim::Rng rng(5);
    Design d{Matrix(5, 4), Vector(5)};
    for (std::size_t r = 0; r < 5; ++r) {
        for (std::size_t c = 0; c < 4; ++c)
            d.a(r, c) = rng.uniform(0.0, 2.0);
        d.b[r] = rng.uniform(1.0, 10.0);
    }
    return d;
}

/** Column 2 duplicates column 0, so QR detects rank deficiency. */
Design
duplicateColumnDesign()
{
    sim::Rng rng(17);
    Design d{Matrix(40, 3), Vector(40)};
    for (std::size_t r = 0; r < 40; ++r) {
        d.a(r, 0) = rng.uniform(0.0, 4.0);
        d.a(r, 1) = rng.uniform(0.0, 1.0);
        d.a(r, 2) = d.a(r, 0);
        d.b[r] = 3.0 * d.a(r, 0) + 2.0 * d.a(r, 1) +
            rng.uniform(-0.1, 0.1);
    }
    return d;
}

/**
 * The unconstrained fit of this design has negative coefficients, so
 * the non-negative solver freezes columns and refits sub-problems.
 */
Design
negativeCoefficientDesign()
{
    sim::Rng rng(29);
    Design d{Matrix(300, 4), Vector(300)};
    for (std::size_t r = 0; r < 300; ++r) {
        for (std::size_t c = 0; c < 4; ++c)
            d.a(r, c) = rng.uniform(0.0, 1.0);
        d.b[r] = 2.0 * d.a(r, 0) - 0.7 * d.a(r, 1) +
            1.2 * d.a(r, 2) - 0.05 * d.a(r, 3) +
            rng.uniform(-0.2, 0.2);
    }
    return d;
}

TEST(LeastSquaresBits, RefitShapedDesign)
{
    Design d = refitShapedDesign();
    expectBitIdentical(solveLeastSquares(d.a, d.b),
                       {{"401ff88180bc524c", "3ff8113878b5c463",
                         "4007fc00d4cb1129", "4051984745f121cc",
                         "4069d43b03ba5384", "40165b30500a2418",
                         "400fcbff74b4186e", "4007777deb8cf995"},
                        "3fe2549ff15e810c", false});
    expectBitIdentical(solveNonNegativeLeastSquares(d.a, d.b),
                       {{"401ff88180bc524c", "3ff8113878b5c463",
                         "4007fc00d4cb1129", "4051984745f121cc",
                         "4069d43b03ba5384", "40165b30500a2418",
                         "400fcbff74b4186e", "4007777deb8cf995"},
                        "3fe2549ff15e810c", false});
}

TEST(LeastSquaresBits, MinimalSystem)
{
    Design d = minimalDesign();
    expectBitIdentical(solveLeastSquares(d.a, d.b),
                       {{"3ffe0a6403e55ade", "4012d6d2d9c7a01c",
                         "c00090284b90d634", "3febde00874efc15"},
                        "3fd4f3395aefc7ef", false});
    expectBitIdentical(solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ff27ac9f08abb23", "40004a015e9554d9",
                         "0000000000000000", "3ffea9df48dbfd3e"},
                        "3fe48ce2876f77d7", false});
}

TEST(LeastSquaresBits, DuplicateColumnTakesRidgeFallback)
{
    Design d = duplicateColumnDesign();
    expectBitIdentical(solveLeastSquares(d.a, d.b),
                       {{"3ff7f824202bd73f", "40004a1f1b0bbc2a",
                         "3ff7f8241edaa055"},
                        "3fadce85a72b5a39", true});
    expectBitIdentical(solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ff7f824202bd73f", "40004a1f1b0bbc2a",
                         "3ff7f8241edaa055"},
                        "3fadce85a72b5a39", true});
}

TEST(LeastSquaresBits, NegativeCoefficientsIterateNnls)
{
    Design d = negativeCoefficientDesign();
    expectBitIdentical(solveLeastSquares(d.a, d.b),
                       {{"3fffbccbf0a120c0", "bfe68081e46ab72c",
                         "3ff2ddadd378dc71", "bf89f074d06ba1b3"},
                        "3fbc49f7129052be", false});
    expectBitIdentical(solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ffab5bf777237d5", "0000000000000000",
                         "3febc1ebcf77f6f9", "0000000000000000"},
                        "3fd0bbebf38139fb", false});
}

TEST(LeastSquaresBits, WeightedFitOfTheRefitShape)
{
    Design d = refitShapedDesign();
    Vector w(d.a.rows(), 1.0);
    for (std::size_t r = 0; r < 576; ++r)
        w[r] = 4096.0 / 576.0;
    expectBitIdentical(solveWeightedLeastSquares(d.a, d.b, w),
                       {{"401ffb9ecf7442b4", "3ff8007d619f9d6f",
                         "40078996179d5501", "4051b425ddd7c5c8",
                         "4069beeddd39b827", "401653bd391c0e0e",
                         "40100be0faed7936", "4007bd7651cdc70e"},
                        "3fe258e2c1d603de", false});
}

} // namespace
} // namespace pcon::linalg
