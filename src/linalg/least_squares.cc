#include "least_squares.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace pcon {
namespace linalg {

using util::fatalIf;
using util::panicIf;

namespace {

/**
 * In-place Householder QR of A (rows >= cols assumed after checks),
 * applying the same transformations to b. On return the upper
 * triangle of A holds R. Returns false when a diagonal of R is
 * (near-)zero, i.e. the design is rank deficient.
 *
 * Each column k costs two sweeps over rows k..m-1 in storage order.
 * The first accumulates v^T v and v^T x for every column x >= k and
 * for b; the second applies the reflector row by row and accumulates
 * the next column's squared norm from the rows it has just updated.
 * Every sum adds its terms in ascending row order, as a
 * column-at-a-time loop does, so the factors are bit-identical to
 * one.
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

/** Cholesky solve of the SPD system m x = rhs; false if not SPD. */
bool
choleskySolve(Matrix m, Vector rhs, Vector &x)
{
    std::size_t n = m.rows();
    panicIf(m.cols() != n || rhs.size() != n, "choleskySolve shape");
    // Decompose m = L L^T in place (lower triangle).
    for (std::size_t j = 0; j < n; ++j) {
        double d = m(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= m(j, k) * m(j, k);
        if (d <= 0.0)
            return false;
        m(j, j) = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = m(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= m(i, k) * m(j, k);
            m(i, j) = s / m(j, j);
        }
    }
    // Forward solve L y = rhs.
    Vector y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double s = rhs[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= m(i, k) * y[k];
        y[i] = s / m(i, i);
    }
    // Back solve L^T x = y.
    x.assign(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= m(k, ii) * x[k];
        x[ii] = s / m(ii, ii);
    }
    return true;
}

/** Ridge coefficients from the normal equations, without the RMSE. */
Vector
ridgeCoefficients(const Matrix &a, const Vector &b, double lambda)
{
    Matrix at = a.transposed();
    Matrix ata = at * a;
    for (std::size_t i = 0; i < ata.rows(); ++i)
        ata(i, i) += lambda;
    Vector atb = at * b;
    Vector x;
    if (!choleskySolve(ata, atb, x))
        util::panic("ridge normal equations not SPD despite penalty");
    return x;
}

/**
 * solveLeastSquares without the RMSE, for the weighted and
 * non-negative solvers: they score other coefficients or another
 * problem than the one solved here.
 */
LsqResult
fitLeastSquares(const Matrix &a, const Vector &b)
{
    fatalIf(a.rows() != b.size(),
            "least squares: ", a.rows(), " rows vs ", b.size(),
            " targets");
    fatalIf(a.rows() < a.cols(),
            "least squares: underdetermined system (", a.rows(),
            " samples, ", a.cols(), " features)");
    fatalIf(a.cols() == 0, "least squares: empty design matrix");

    Matrix qr = a;
    Vector qtb = b;
    LsqResult result;
    if (householderQr(qr, qtb) &&
        backSubstitute(qr, qtb, result.coefficients))
        return result;

    // Rank-deficient design: fall back to a mild ridge penalty scaled
    // to the average squared feature magnitude.
    double scale = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            scale += a(r, c) * a(r, c);
    scale /= static_cast<double>(std::max<std::size_t>(1, a.rows()));
    double lambda = std::max(1e-9, 1e-6 * scale);
    result.coefficients = ridgeCoefficients(a, b, lambda);
    result.rankDeficient = true;
    return result;
}

} // namespace

LsqResult
solveLeastSquares(const Matrix &a, const Vector &b)
{
    LsqResult result = fitLeastSquares(a, b);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveWeightedLeastSquares(const Matrix &a, const Vector &b,
                          const Vector &weights)
{
    fatalIf(weights.size() != a.rows(),
            "weighted least squares: weight count mismatch");
    Matrix wa(a.rows(), a.cols());
    Vector wb(b.size());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        fatalIf(weights[r] < 0.0, "negative sample weight");
        double s = std::sqrt(weights[r]);
        for (std::size_t c = 0; c < a.cols(); ++c)
            wa(r, c) = a(r, c) * s;
        wb[r] = b[r] * s;
    }
    LsqResult result = fitLeastSquares(wa, wb);
    // Report RMSE on the unweighted problem for interpretability.
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveNonNegativeLeastSquares(const Matrix &a, const Vector &b)
{
    // Start from the unconstrained solution; repeatedly clamp negative
    // coefficients to zero and refit the remaining free columns.
    LsqResult result = fitLeastSquares(a, b);
    std::vector<bool> frozen(a.cols(), false);
    for (std::size_t iter = 0; iter < a.cols(); ++iter) {
        bool any_negative = false;
        for (std::size_t c = 0; c < a.cols(); ++c) {
            if (!frozen[c] && result.coefficients[c] < 0.0) {
                frozen[c] = true;
                any_negative = true;
            }
        }
        if (!any_negative)
            break;

        std::vector<std::size_t> free_cols;
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (!frozen[c])
                free_cols.push_back(c);
        Vector coeffs(a.cols(), 0.0);
        if (!free_cols.empty()) {
            Matrix sub(a.rows(), free_cols.size());
            for (std::size_t r = 0; r < a.rows(); ++r)
                for (std::size_t j = 0; j < free_cols.size(); ++j)
                    sub(r, j) = a(r, free_cols[j]);
            LsqResult sub_fit = fitLeastSquares(sub, b);
            for (std::size_t j = 0; j < free_cols.size(); ++j)
                coeffs[free_cols[j]] = sub_fit.coefficients[j];
            result.rankDeficient |= sub_fit.rankDeficient;
        }
        result.coefficients = coeffs;
    }
    for (double &c : result.coefficients)
        c = std::max(0.0, c);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveRidge(const Matrix &a, const Vector &b, double lambda)
{
    fatalIf(lambda <= 0.0, "ridge lambda must be positive");
    fatalIf(a.rows() != b.size(), "ridge: shape mismatch");
    LsqResult result;
    result.coefficients = ridgeCoefficients(a, b, lambda);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

} // namespace linalg
} // namespace pcon
