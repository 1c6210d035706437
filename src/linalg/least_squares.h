/**
 * @file
 * Least-squares solvers used for power model calibration
 * (Sections 3.2 and 4.1 of the paper): Householder QR for the
 * well-conditioned case and a ridge-regularized normal-equation
 * fallback for rank-deficient designs, plus weighted and
 * non-negative variants.
 *
 * Cost: the online recalibrator refits a 4,672 x 8 design 100 times
 * per simulated second. The QR makes two sweeps per column over the
 * rows at and below the diagonal, in storage order, with no
 * per-column allocation; one non-negative refit of that shape takes
 * ~0.4-0.5 ms on a 4-vCPU x86-64 VM (docs/PERFORMANCE.md "Exact
 * refits"). The non-negative solver computes the RMSE once, for its
 * final coefficients.
 *
 * Contract: the results are a fixed function of the input bits. Every
 * sum (column norms, v^T v, reflector projections, back-substitution,
 * residuals) adds its terms in ascending row (or column) order, and a
 * faster solver must keep that order: the recalibration goldens and
 * ledger fingerprints depend on every bit of every refit.
 * tests/linalg/least_squares_test.cc pins the output bit patterns.
 */

#ifndef PCON_LINALG_LEAST_SQUARES_H
#define PCON_LINALG_LEAST_SQUARES_H

#include "linalg/matrix.h"

namespace pcon {
namespace linalg {

/** Outcome of a least-squares solve. */
struct LsqResult
{
    /** Fitted coefficients, one per design-matrix column. */
    Vector coefficients;
    /** Root-mean-square residual over the fitting samples. */
    double rmse = 0.0;
    /** True when the QR path detected (near) rank deficiency. */
    bool rankDeficient = false;
};

/**
 * Solve min ||A x - b||_2 by Householder QR. Falls back to ridge
 * regression (lambda scaled to the design) when A is rank deficient.
 *
 * @param a Design matrix (rows = samples, cols = features).
 * @param b Targets, length a.rows().
 */
LsqResult solveLeastSquares(const Matrix &a, const Vector &b);

/**
 * Weighted least squares: min sum_i w_i (A_i x - b_i)^2. Weights must
 * be non-negative. Implemented by row scaling with sqrt(w).
 */
LsqResult solveWeightedLeastSquares(const Matrix &a, const Vector &b,
                                    const Vector &weights);

/**
 * Least squares with non-negativity constraints on the coefficients,
 * solved by iterated clipping (projected coordinate refitting). Power
 * coefficients are physically non-negative; calibration uses this to
 * avoid nonsensical negative per-event energy costs.
 */
LsqResult solveNonNegativeLeastSquares(const Matrix &a, const Vector &b);

/**
 * Ridge regression: min ||A x - b||^2 + lambda ||x||^2 via normal
 * equations and Cholesky. lambda must be > 0.
 */
LsqResult solveRidge(const Matrix &a, const Vector &b, double lambda);

} // namespace linalg
} // namespace pcon

#endif // PCON_LINALG_LEAST_SQUARES_H
