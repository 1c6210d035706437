/**
 * @file
 * Least-squares solvers used for power model calibration
 * (Sections 3.2 and 4.1 of the paper): Householder QR for the
 * well-conditioned case, a ridge-regularized normal-equation
 * fallback for rank-deficient designs, and a non-negative variant.
 *
 * Cost: a solve packs [A | b] into one row-major buffer and factors
 * it with a QR kernel whose width is a template parameter,
 * instantiated for 1..kMaxFeatures features and chosen once per
 * solve, so every column loop is unrolled and each sweep's
 * accumulators stay in registers (docs/PERFORMANCE.md "Fixed-width
 * refits"). A solve makes two passes per column over every row:
 * ~0.15-0.25 ms for a 4,672 x 8 non-negative fit on a 4-vCPU x86-64
 * VM, ~2-3 us for 59 rows. The online recalibrator keeps its refits
 * at the second figure by solving a compressed stack instead of its
 * full design: triangularFactor() reduces each closed block of rows
 * to n + 1 rows once, mergeFactors() keeps those factors merged, and
 * a refit stacks the merged factors with the few rows not yet in one
 * (core/recalibration.h, docs/PERFORMANCE.md "Compressed refits" and
 * "Two-stack refits"). A solve does not compute the RMSE;
 * residualRmse() does, for the callers that report it.
 *
 * Contract: the results are a fixed function of the input bits. Every
 * sum (column norms, v^T v, reflector projections, back-substitution,
 * residuals) starts at 0.0 and adds its terms in ascending row (or
 * column) order, and a faster solver must keep that order: offline
 * calibration, the recalibration goldens and the ledger fingerprints
 * depend on every bit of every solve. The build compiles every
 * translation unit with -ffp-contract=off (src/util/CMakeLists.txt),
 * so a target with fused multiply-add instructions rounds each
 * a*b + c twice, as x86-64 without FMA does.
 * tests/linalg/least_squares_test.cc pins the output bit patterns and
 * checks every width against a column-loop reference. A stack of
 * factors has the Gram matrix [A b]^T [A b] of the rows it stands
 * for, so it has the same least-squares solution in exact arithmetic,
 * for every column subset; in floating point the two agree to
 * rounding, not bit for bit.
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
 * Triangular factor of [A | b] for n = a.cols() features: the
 * (n+1) x (n+1) upper-triangular R of the Householder QR the solvers
 * use, with b reflected as column n, so that
 * R^T R = [A b]^T [A b] up to rounding. Row i of R is a design row
 * (columns 0..n-1) with its target (column n): stacked in place of
 * the rows it factors, it leaves every least-squares solution, and
 * the residual sum of squares, unchanged. A column that is zero from
 * the diagonal down is stepped over (its diagonal is 0), and with
 * fewer than n + 1 rows the bottom rows of R are zero.
 *
 * @param a Rows to factor (any count, 1..kMaxFeatures columns).
 * @param b Their targets, length a.rows().
 */
Matrix triangularFactor(const Matrix &a, const Vector &b);

/**
 * The factor of the rows two factors stand for: triangularFactor of
 * `upper` stacked on top of `lower`. Its Gram matrix is the sum of
 * theirs, up to rounding.
 *
 * @param upper, lower (n+1) x (n+1) factors of the same n features.
 */
Matrix mergeFactors(const Matrix &upper, const Matrix &lower);

/**
 * Solve min ||A x - b||_2 by Householder QR. Falls back to ridge
 * regression (lambda scaled to the design) when A is rank deficient.
 *
 * @param a Design matrix (rows = samples, 1..kMaxFeatures columns).
 * @param b Targets, length a.rows().
 * @param represented_rows Rows the design stands for when it stacks
 *        triangular factors (0: a.rows()). The ridge penalty is
 *        scaled by the mean squared feature over these rows.
 */
LsqResult solveLeastSquares(const Matrix &a, const Vector &b,
                            std::size_t represented_rows = 0);

/**
 * Least squares with non-negativity constraints on the coefficients,
 * solved by iterated clipping (projected coordinate refitting). Power
 * coefficients are physically non-negative; calibration uses this to
 * avoid nonsensical negative per-event energy costs.
 *
 * @param represented_rows As for solveLeastSquares().
 */
LsqResult solveNonNegativeLeastSquares(const Matrix &a, const Vector &b,
                                       std::size_t represented_rows = 0);

/**
 * Root-mean-square residual sqrt(sum_i (A_i x - b_i)^2 / rows), 0 for
 * an empty design. Each prediction sums its columns in ascending
 * order, and the squared residuals add in ascending row order.
 */
double residualRmse(const Matrix &a, const Vector &b, const Vector &x);

} // namespace linalg
} // namespace pcon

#endif // PCON_LINALG_LEAST_SQUARES_H
