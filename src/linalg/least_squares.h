/**
 * @file
 * Least-squares solvers used for power model calibration
 * (Sections 3.2 and 4.1 of the paper): Householder QR for the
 * well-conditioned case, a ridge-regularized normal-equation
 * fallback for rank-deficient designs, and a non-negative variant.
 *
 * Cost: the online recalibrator refits a 4,672 x 8 design 100 times
 * per simulated second. A solve packs [A | b] into one row-major
 * buffer and factors it with a QR kernel whose width is a template
 * parameter, instantiated for 1..kMaxFeatures features and chosen
 * once per solve, so every column loop is unrolled and each sweep's
 * accumulators stay in registers. One non-negative refit of that
 * shape takes ~0.15-0.2 ms on a 4-vCPU x86-64 VM, about half what the
 * same QR took with a width known only at run time (docs/PERFORMANCE.md
 * "Fixed-width refits"). A solve does not compute the RMSE;
 * residualRmse() does, for the callers that report it.
 *
 * Contract: the results are a fixed function of the input bits. Every
 * sum (column norms, v^T v, reflector projections, back-substitution,
 * residuals) starts at 0.0 and adds its terms in ascending row (or
 * column) order, and a faster solver must keep that order: the
 * recalibration goldens and ledger fingerprints depend on every bit of
 * every refit. The build compiles every translation unit with
 * -ffp-contract=off (src/util/CMakeLists.txt), so a target with fused
 * multiply-add instructions rounds each a*b + c twice, as x86-64
 * without FMA does. tests/linalg/least_squares_test.cc pins the
 * output bit patterns and checks every width against a column-loop
 * reference.
 */

#ifndef PCON_LINALG_LEAST_SQUARES_H
#define PCON_LINALG_LEAST_SQUARES_H

#include <cstddef>

#include "linalg/matrix.h"

namespace pcon {
namespace linalg {

/**
 * Widest design the solvers accept: offline calibration's intercept
 * plus one column per core::Metric. A wider design is a
 * util::FatalError.
 */
inline constexpr std::size_t kMaxFeatures = 9;

/** Outcome of a least-squares solve. */
struct LsqResult
{
    /** Fitted coefficients, one per design-matrix column. */
    Vector coefficients;
    /** True when the QR path detected (near) rank deficiency. */
    bool rankDeficient = false;
};

/**
 * Solve min ||A x - b||_2 by Householder QR. Falls back to ridge
 * regression (lambda scaled to the design) when A is rank deficient.
 *
 * @param a Design matrix (rows = samples, 1..kMaxFeatures columns).
 * @param b Targets, length a.rows().
 */
LsqResult solveLeastSquares(const Matrix &a, const Vector &b);

/**
 * Least squares with non-negativity constraints on the coefficients,
 * solved by iterated clipping (projected coordinate refitting). Power
 * coefficients are physically non-negative; calibration uses this to
 * avoid nonsensical negative per-event energy costs.
 */
LsqResult solveNonNegativeLeastSquares(const Matrix &a, const Vector &b);

/**
 * Root-mean-square residual sqrt(sum_i (A_i x - b_i)^2 / rows), 0 for
 * an empty design. Each prediction sums its columns in ascending
 * order, and the squared residuals add in ascending row order.
 */
double residualRmse(const Matrix &a, const Vector &b, const Vector &x);

} // namespace linalg
} // namespace pcon

#endif // PCON_LINALG_LEAST_SQUARES_H
