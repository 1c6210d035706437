#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
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
    EXPECT_NEAR(residualRmse(a, b, fit.coefficients), 0.0, 1e-9);
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
    double rmse = residualRmse(a, b, fit.coefficients);
    EXPECT_GT(rmse, 0.0);
    EXPECT_LT(rmse, 0.1);
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
    EXPECT_LT(residualRmse(a, b, fit.coefficients), 1e-2);
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
    Matrix wide(12, kMaxFeatures + 1);
    for (std::size_t r = 0; r < wide.rows(); ++r)
        wide(r, r % wide.cols()) = 1.0;
    Vector b12(12, 1.0);
    EXPECT_THROW(solveLeastSquares(wide, b12), util::FatalError);
    EXPECT_THROW(residualRmse(a, b, Vector{1.0, 2.0}), util::FatalError);
    EXPECT_THROW(residualRmse(under, b1, Vector{1.0}), util::FatalError);
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

// ---------------------------------------------------------------------
// Exact-output pins. The solver's cost may change but its output may
// not (docs/PERFORMANCE.md "Exact refits"): each test below compares
// the IEEE-754 bit patterns of every coefficient, the RMSE of the fit
// (residualRmse) and the rank-deficiency flag with values recorded
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

struct Design
{
    Matrix a;
    Vector b;
};

void
expectBitIdentical(const Design &d, const LsqResult &fit,
                   const PinnedFit &pin)
{
    ASSERT_EQ(fit.coefficients.size(), pin.coefficients.size());
    for (std::size_t i = 0; i < pin.coefficients.size(); ++i)
        EXPECT_EQ(hexBits(fit.coefficients[i]), pin.coefficients[i])
            << "coefficient " << i;
    EXPECT_EQ(hexBits(residualRmse(d.a, d.b, fit.coefficients)), pin.rmse)
        << "rmse";
    EXPECT_EQ(fit.rankDeficient, pin.rankDeficient) << "rankDeficient";
}

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
    expectBitIdentical(d, solveLeastSquares(d.a, d.b),
                       {{"401ff88180bc524c", "3ff8113878b5c463",
                         "4007fc00d4cb1129", "4051984745f121cc",
                         "4069d43b03ba5384", "40165b30500a2418",
                         "400fcbff74b4186e", "4007777deb8cf995"},
                        "3fe2549ff15e810c", false});
    expectBitIdentical(d, solveNonNegativeLeastSquares(d.a, d.b),
                       {{"401ff88180bc524c", "3ff8113878b5c463",
                         "4007fc00d4cb1129", "4051984745f121cc",
                         "4069d43b03ba5384", "40165b30500a2418",
                         "400fcbff74b4186e", "4007777deb8cf995"},
                        "3fe2549ff15e810c", false});
}

TEST(LeastSquaresBits, MinimalSystem)
{
    Design d = minimalDesign();
    expectBitIdentical(d, solveLeastSquares(d.a, d.b),
                       {{"3ffe0a6403e55ade", "4012d6d2d9c7a01c",
                         "c00090284b90d634", "3febde00874efc15"},
                        "3fd4f3395aefc7ef", false});
    expectBitIdentical(d, solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ff27ac9f08abb23", "40004a015e9554d9",
                         "0000000000000000", "3ffea9df48dbfd3e"},
                        "3fe48ce2876f77d7", false});
}

TEST(LeastSquaresBits, DuplicateColumnTakesRidgeFallback)
{
    Design d = duplicateColumnDesign();
    expectBitIdentical(d, solveLeastSquares(d.a, d.b),
                       {{"3ff7f824202bd73f", "40004a1f1b0bbc2a",
                         "3ff7f8241edaa055"},
                        "3fadce85a72b5a39", true});
    expectBitIdentical(d, solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ff7f824202bd73f", "40004a1f1b0bbc2a",
                         "3ff7f8241edaa055"},
                        "3fadce85a72b5a39", true});
}

TEST(LeastSquaresBits, NegativeCoefficientsIterateNnls)
{
    Design d = negativeCoefficientDesign();
    expectBitIdentical(d, solveLeastSquares(d.a, d.b),
                       {{"3fffbccbf0a120c0", "bfe68081e46ab72c",
                         "3ff2ddadd378dc71", "bf89f074d06ba1b3"},
                        "3fbc49f7129052be", false});
    expectBitIdentical(d, solveNonNegativeLeastSquares(d.a, d.b),
                       {{"3ffab5bf777237d5", "0000000000000000",
                         "3febc1ebcf77f6f9", "0000000000000000"},
                        "3fd0bbebf38139fb", false});
}

// ---------------------------------------------------------------------
// Differential check of the fixed-width kernels. The reference is the
// generic column-loop solver the kernels replaced, kept here verbatim:
// a QR whose column loops run to a run-time width, its
// back-substitution, and its RMSE. For every width the solver accepts,
// the kernel's coefficients, rank-deficiency flag and residualRmse
// must equal the reference bit for bit.

namespace reference {

/**
 * In-place Householder QR of A (rows >= cols assumed after checks),
 * applying the same transformations to b. On return the upper
 * triangle of A holds R. Returns false when a diagonal of R is
 * (near-)zero, i.e. the design is rank deficient.
 */
bool
householderQr(Matrix &a, Vector &b)
{
    std::size_t m = a.rows();
    std::size_t n = a.cols();
    // proj[j] = v^T (column j) for j >= k; proj[n] = v^T b.
    Vector proj(n + 1);
    double col_norm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        col_norm2 += a(i, 0) * a(i, 0);
    for (std::size_t k = 0; k < n; ++k) {
        // Norm of column k below (and including) the diagonal.
        double col_norm = std::sqrt(col_norm2);
        if (col_norm < 1e-12)
            return false;

        // Householder vector v = x - alpha*e1: v0 on the diagonal,
        // column k itself below it.
        double alpha = a(k, k) > 0 ? -col_norm : col_norm;
        double v0 = a(k, k) - alpha;
        double v_norm2 = 0.0;
        std::fill(proj.begin() + static_cast<std::ptrdiff_t>(k),
                  proj.end(), 0.0);
        for (std::size_t i = k; i < m; ++i) {
            double vi = i == k ? v0 : a(i, k);
            v_norm2 += vi * vi;
            for (std::size_t j = k; j < n; ++j)
                proj[j] += vi * a(i, j);
            proj[n] += vi * b[i];
        }
        if (v_norm2 < 1e-24)
            return false;
        for (std::size_t j = k; j <= n; ++j)
            proj[j] = 2.0 * proj[j] / v_norm2;

        // Apply H = I - 2 v v^T / (v^T v) to A[k:, k:] and b[k:].
        col_norm2 = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            double vi = i == k ? v0 : a(i, k);
            for (std::size_t j = k; j < n; ++j)
                a(i, j) -= proj[j] * vi;
            b[i] -= proj[n] * vi;
            if (i > k && k + 1 < n)
                col_norm2 += a(i, k + 1) * a(i, k + 1);
        }
    }
    return true;
}

/** Back-substitute R x = c where R is the upper triangle of a. */
bool
backSubstitute(const Matrix &a, const Vector &c, Vector &x)
{
    std::size_t n = a.cols();
    x.assign(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double diag = a(ri, ri);
        if (std::abs(diag) < 1e-12)
            return false;
        double acc = c[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            acc -= a(ri, j) * x[j];
        x[ri] = acc / diag;
    }
    return true;
}

double
computeRmse(const Matrix &a, const Vector &b, const Vector &x)
{
    if (a.rows() == 0)
        return 0.0;
    double sse = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double pred = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c)
            pred += a(i, c) * x[c];
        double r = pred - b[i];
        sse += r * r;
    }
    return std::sqrt(sse / static_cast<double>(b.size()));
}

} // namespace reference

/**
 * A seeded m x n design whose columns span several magnitudes, as the
 * recalibrator's metric columns do. Column `zero` (if < n) is all
 * zeros; column `copy_of_first` (if < n) duplicates column 0. Either
 * makes the design rank deficient.
 */
Design
seededDesign(std::size_t m, std::size_t n, std::uint64_t seed,
             std::size_t zero = kMaxFeatures,
             std::size_t copy_of_first = kMaxFeatures)
{
    sim::Rng rng(seed);
    Design d{Matrix(m, n), Vector(m)};
    for (std::size_t r = 0; r < m; ++r) {
        double target = rng.uniform(-1.0, 1.0);
        for (std::size_t c = 0; c < n; ++c) {
            double scale = c % 3 == 0 ? 8.0 : c % 3 == 1 ? 1.0 : 0.05;
            d.a(r, c) = scale * rng.uniform(-0.2, 1.0);
            target += d.a(r, c) * double(c + 1);
        }
        d.b[r] = target;
    }
    for (std::size_t r = 0; r < m; ++r) {
        if (zero < n)
            d.a(r, zero) = 0.0;
        if (copy_of_first < n)
            d.a(r, copy_of_first) = d.a(r, 0);
    }
    return d;
}

TEST(LeastSquaresBits, EveryWidthMatchesTheColumnLoop)
{
    for (std::size_t n = 1; n <= kMaxFeatures; ++n) {
        for (std::size_t m : {n + 1, std::size_t{64}, std::size_t{704},
                              std::size_t{4672}}) {
            std::uint64_t seed = 1000 * n + m;
            std::vector<Design> designs;
            designs.push_back(seededDesign(m, n, seed));
            designs.push_back(seededDesign(m, n, seed, n / 2));
            if (n > 1)
                designs.push_back(
                    seededDesign(m, n, seed, kMaxFeatures, n - 1));
            for (std::size_t k = 0; k < designs.size(); ++k) {
                SCOPED_TRACE(::testing::Message()
                             << n << " features, " << m << " rows, "
                             << (k == 0   ? "seeded"
                                 : k == 1 ? "zero column"
                                          : "duplicate column"));
                const Design &d = designs[k];
                LsqResult fit = solveLeastSquares(d.a, d.b);
                double rmse = residualRmse(d.a, d.b, fit.coefficients);
                ASSERT_EQ(fit.coefficients.size(), n);

                Matrix qr = d.a;
                Vector qtb = d.b;
                Vector x;
                bool full_rank = reference::householderQr(qr, qtb) &&
                    reference::backSubstitute(qr, qtb, x);
                EXPECT_EQ(fit.rankDeficient, !full_rank);
                // Only the zero- and duplicate-column designs take the
                // ridge fallback.
                EXPECT_EQ(full_rank, k == 0);
                if (!full_rank) {
                    // Both take the unchanged ridge fallback on the
                    // original design, which DuplicateColumnTakes-
                    // RidgeFallback pins.
                    EXPECT_EQ(hexBits(rmse),
                              hexBits(reference::computeRmse(
                                  d.a, d.b, fit.coefficients)));
                    continue;
                }
                for (std::size_t c = 0; c < n; ++c)
                    EXPECT_EQ(hexBits(fit.coefficients[c]),
                              hexBits(x[c]))
                        << "coefficient " << c;
                EXPECT_EQ(hexBits(rmse),
                          hexBits(reference::computeRmse(d.a, d.b, x)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Triangular factors (triangularFactor). The recalibrator stacks them
// in place of the rows they factor, so the property that matters is
// that R^T R equals [A b]^T [A b]: then every least-squares problem
// over any column subset has the same solution. Gram entries are
// compared relative to sqrt(G_ii G_jj), the largest value
// Cauchy-Schwarz allows.

/** [A b]^T [A b], row-major, (n+1) x (n+1). */
std::vector<double>
augmentedGram(const Matrix &a, const Vector &b)
{
    const std::size_t w = a.cols() + 1;
    auto at = [&](std::size_t r, std::size_t c) {
        return c < a.cols() ? a(r, c) : b[r];
    };
    std::vector<double> g(w * w, 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t i = 0; i < w; ++i)
            for (std::size_t j = 0; j < w; ++j)
                g[i * w + j] += at(r, i) * at(r, j);
    return g;
}

/** A factor as a design (its first n columns) and targets (column n). */
Design
splitFactor(const Matrix &r)
{
    const std::size_t n = r.cols() - 1;
    Design d{Matrix(r.rows(), n), Vector(r.rows())};
    for (std::size_t i = 0; i < r.rows(); ++i) {
        for (std::size_t c = 0; c < n; ++c)
            d.a(i, c) = r(i, c);
        d.b[i] = r(i, n);
    }
    return d;
}

/** Stack designs top to bottom, each scaled by its factor. */
Design
stack(const std::vector<std::pair<Design, double>> &parts)
{
    Design out;
    for (const auto &[d, scale] : parts) {
        for (std::size_t i = 0; i < d.a.rows(); ++i) {
            Vector row(d.a.cols());
            for (std::size_t c = 0; c < d.a.cols(); ++c)
                row[c] = d.a(i, c) * scale;
            out.a.appendRow(row);
            out.b.push_back(d.b[i] * scale);
        }
    }
    return out;
}

/** Rows [first, first + count) of a design. */
Design
rowsOf(const Design &d, std::size_t first, std::size_t count)
{
    Design out{Matrix(count, d.a.cols()), Vector(count)};
    for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t c = 0; c < d.a.cols(); ++c)
            out.a(i, c) = d.a(first + i, c);
        out.b[i] = d.b[first + i];
    }
    return out;
}

void
expectSameGram(const Design &rows, const Design &stacked)
{
    std::vector<double> g = augmentedGram(rows.a, rows.b);
    std::vector<double> h = augmentedGram(stacked.a, stacked.b);
    const std::size_t w = rows.a.cols() + 1;
    for (std::size_t i = 0; i < w; ++i)
        for (std::size_t j = 0; j < w; ++j)
            EXPECT_LE(std::abs(g[i * w + j] - h[i * w + j]),
                      1e-12 * std::sqrt(g[i * w + i] * g[j * w + j]))
                << "Gram entry (" << i << ", " << j << "): "
                << g[i * w + j] << " vs " << h[i * w + j];
}

/**
 * Check a factor of `d`: (n+1) x (n+1), exactly zero below the
 * diagonal, and the Gram matrix of the rows it replaces.
 */
void
expectFactorOf(const Design &d, const Matrix &r)
{
    const std::size_t w = d.a.cols() + 1;
    ASSERT_EQ(r.rows(), w);
    ASSERT_EQ(r.cols(), w);
    for (std::size_t i = 0; i < w; ++i)
        for (std::size_t c = 0; c < i; ++c)
            EXPECT_EQ(r(i, c), 0.0) << "below the diagonal at (" << i
                                    << ", " << c << ")";
    expectSameGram(d, splitFactor(r));
}

/** Largest |x_i - y_i| / max(|x_i|, |y_i|), 0 where both are 0. */
double
maxRelativeDifference(const Vector &x, const Vector &y)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double scale = std::max(std::abs(x[i]), std::abs(y[i]));
        if (scale > 0.0)
            worst = std::max(worst, std::abs(x[i] - y[i]) / scale);
    }
    return worst;
}

TEST(TriangularFactor, KeepsTheGramMatrixOfTheRowsItReplaces)
{
    for (std::size_t n = 1; n <= kMaxFeatures; ++n) {
        for (std::size_t m : {std::size_t{1}, n + 1, std::size_t{128},
                              std::size_t{576}}) {
            SCOPED_TRACE(::testing::Message()
                         << n << " features, " << m << " rows");
            Design d = seededDesign(m, n, 77 * n + m);
            expectFactorOf(d, triangularFactor(d.a, d.b));
        }
    }
}

TEST(TriangularFactor, StepsOverAnAllZeroColumn)
{
    // An idle device leaves whole blocks with zero Disk and Net
    // columns; a zero target is the other column a factor reflects.
    for (std::size_t zero : {std::size_t{0}, std::size_t{3},
                             std::size_t{7}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "zero column " << zero);
        Design d = seededDesign(128, 8, 404 + zero, zero);
        if (zero == 8)
            std::fill(d.b.begin(), d.b.end(), 0.0);
        if (zero == 7)
            for (std::size_t r = 0; r < d.a.rows(); ++r)
                d.a(r, 6) = 0.0;
        Matrix r = triangularFactor(d.a, d.b);
        expectFactorOf(d, r);
        EXPECT_EQ(r(zero, zero), 0.0);
    }
}

TEST(TriangularFactor, MergingTwoFactorsKeepsTheGramMatrixOfBoth)
{
    // The recalibrator merges block factors into sliding-window
    // aggregates, over blocks where an idle device's column is zero
    // and, merged again, over their aggregates.
    for (std::size_t zero : {kMaxFeatures, std::size_t{0}, std::size_t{5},
                             std::size_t{7}}) {
        SCOPED_TRACE(::testing::Message() << "zero column " << zero);
        Design older = seededDesign(32, 8, 500 + zero, zero);
        Design newer = seededDesign(96, 8, 600 + zero, zero);
        Design newest = seededDesign(32, 8, 700 + zero);
        Matrix merged = mergeFactors(triangularFactor(older.a, older.b),
                                     triangularFactor(newer.a, newer.b));
        expectFactorOf(stack({{older, 1.0}, {newer, 1.0}}), merged);
        if (zero < 8) {
            EXPECT_EQ(merged(zero, zero), 0.0);
        }
        expectFactorOf(
            stack({{older, 1.0}, {newer, 1.0}, {newest, 1.0}}),
            mergeFactors(merged, triangularFactor(newest.a, newest.b)));
    }
    EXPECT_THROW(mergeFactors(Matrix(9, 9), Matrix(5, 5)),
                 util::FatalError);
    EXPECT_THROW(mergeFactors(Matrix(9, 9), Matrix(9, 8)),
                 util::FatalError);
}

TEST(TriangularFactor, FewerRowsThanColumnsLeavesZeroRows)
{
    Design d = seededDesign(3, 8, 5);
    Matrix r = triangularFactor(d.a, d.b);
    expectFactorOf(d, r);
    for (std::size_t i = 3; i < r.rows(); ++i)
        for (std::size_t c = 0; c < r.cols(); ++c)
            EXPECT_EQ(r(i, c), 0.0) << "row " << i;
    // An empty block factors to zeros.
    Matrix empty = triangularFactor(Matrix(0, 8), Vector{});
    ASSERT_EQ(empty.rows(), 9u);
    for (std::size_t i = 0; i < 9; ++i)
        for (std::size_t c = 0; c < 9; ++c)
            EXPECT_EQ(empty(i, c), 0.0);
}

TEST(TriangularFactor, ScaledStackSolvesLikeTheFullDesign)
{
    // The recalibrator's stack before its online ring fills: offline
    // rows as one factor, online rows up-weighted by sqrt(576 / 300),
    // two closed blocks of 128 as factors and the rest raw. The
    // unconstrained fit has negative coefficients, so the clipping
    // NNLS solves column subsets too.
    Design offline = negativeCoefficientDesign();
    Design online = rowsOf(negativeCoefficientDesign(), 0, 300);
    for (std::size_t r = 0; r < online.a.rows(); ++r)
        online.b[r] += 0.3 * online.a(r, 1);
    const double scale = std::sqrt(576.0 / 300.0);
    Design full = stack({{offline, 1.0}, {online, scale}});

    auto factor = [](const Design &d) {
        return splitFactor(triangularFactor(d.a, d.b));
    };
    Design compressed =
        stack({{factor(offline), 1.0},
               {factor(rowsOf(online, 0, 128)), scale},
               {factor(rowsOf(online, 128, 128)), scale},
               {rowsOf(online, 256, 44), scale}});
    ASSERT_EQ(compressed.a.rows(), 5u + 5u + 5u + 44u);
    expectSameGram(full, compressed);

    LsqResult want = solveNonNegativeLeastSquares(full.a, full.b);
    LsqResult got = solveNonNegativeLeastSquares(
        compressed.a, compressed.b, full.a.rows());
    EXPECT_FALSE(want.rankDeficient);
    EXPECT_FALSE(got.rankDeficient);
    ASSERT_EQ(want.coefficients[1], 0.0) << "the NNLS never clipped";
    EXPECT_LT(maxRelativeDifference(want.coefficients, got.coefficients),
              1e-12);
}

TEST(TriangularFactor, RidgeFallbackScalesByTheRepresentedRows)
{
    // A zero column makes the design rank deficient, so both solves
    // take the ridge fallback. Its penalty is 1e-6 times the mean
    // squared feature: over the 1,000 rows the stack stands for, not
    // over the stack's 4, which would make it 250 times larger.
    Design full = seededDesign(1000, 3, 61, 2);
    Design compressed = splitFactor(triangularFactor(full.a, full.b));
    ASSERT_EQ(compressed.a.rows(), 4u);

    LsqResult want = solveNonNegativeLeastSquares(full.a, full.b);
    LsqResult got = solveNonNegativeLeastSquares(
        compressed.a, compressed.b, full.a.rows());
    EXPECT_TRUE(want.rankDeficient);
    EXPECT_TRUE(got.rankDeficient);
    EXPECT_LT(maxRelativeDifference(want.coefficients, got.coefficients),
              1e-10);

    // The test can tell the two penalties apart.
    LsqResult stack_rows =
        solveNonNegativeLeastSquares(compressed.a, compressed.b);
    EXPECT_GT(
        maxRelativeDifference(want.coefficients, stack_rows.coefficients),
        1e-8);
}

} // namespace
} // namespace pcon::linalg
