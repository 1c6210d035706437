#include "least_squares.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pcon {
namespace linalg {

using util::fatalIf;
using util::panicIf;

namespace {

/**
 * Householder step K of the fixed-width QR of a packed row-major
 * buffer of W doubles per row and m rows: [A | b] with N = W - 1
 * features. J... = 0..W-K-1 index columns K..W-1, so every loop over
 * columns is a compile-time fold: each sweep keeps its accumulators
 * in scalars, which the compiler holds in registers and pairs in SIMD
 * lanes. A lane holds one accumulator, so each sum still adds its
 * rows in ascending order, exactly as a column-at-a-time loop does.
 *
 * A solve (Factor false) reflects the N feature columns and returns
 * false when a column or v is (near-)zero, i.e. the design is rank
 * deficient. A factor (Factor true) also reflects b, column N, and
 * steps over a column that is exactly zero from row K down: it is
 * already triangular, and a zero diagonal is a valid factor.
 *
 * On entry col_norm2 is the squared norm of column K over rows
 * K..m-1; on return it is that of column K+1 over rows K+1..m-1.
 */
template <std::size_t W, bool Factor, std::size_t K, std::size_t... J>
bool
reflectColumn(double *ab, std::size_t m, double &col_norm2,
              std::index_sequence<J...>)
{
    // Columns the factorization reflects: the features, plus b in a
    // factor.
    constexpr std::size_t steps = Factor ? W : W - 1;
    if constexpr (Factor) {
        if (col_norm2 == 0.0) {
            if constexpr (K + 1 < steps)
                for (std::size_t i = K + 1; i < m; ++i)
                    col_norm2 += ab[i * W + K + 1] * ab[i * W + K + 1];
            return true;
        }
    }
    double col_norm = std::sqrt(col_norm2);
    if (!Factor && col_norm < 1e-12)
        return false;

    // Householder vector v = x - alpha*e1: v0 on the diagonal, column
    // K itself below it.
    double *diag_row = ab + K * W;
    double alpha = diag_row[K] > 0 ? -col_norm : col_norm;
    double v0 = diag_row[K] - alpha;

    // Sweep 1: v^T v, and p[J] = v^T (column K+J), b last. Every
    // accumulator starts at 0.0: 0.0 + (-0.0) is +0.0.
    double v_norm2 = 0.0;
    std::array<double, W - K> p{};
    v_norm2 += v0 * v0;
    ((p[J] += v0 * diag_row[K + J]), ...);
    for (std::size_t i = K + 1; i < m; ++i) {
        const double *row = ab + i * W;
        double vi = row[K];
        v_norm2 += vi * vi;
        ((p[J] += vi * row[K + J]), ...);
    }
    if (!Factor && v_norm2 < 1e-24)
        return false;
    ((p[J] = 2.0 * p[J] / v_norm2), ...);

    // Sweep 2: apply H = I - 2 v v^T / (v^T v) row by row, reading
    // v_i before the row changes, and accumulate the next column's
    // squared norm from the row just updated.
    ((diag_row[K + J] -= p[J] * v0), ...);
    col_norm2 = 0.0;
    for (std::size_t i = K + 1; i < m; ++i) {
        double *row = ab + i * W;
        double vi = row[K];
        ((row[K + J] -= p[J] * vi), ...);
        if constexpr (K + 1 < steps)
            col_norm2 += row[K + 1] * row[K + 1];
    }
    return true;
}

/**
 * QR of the packed buffer: step K for every column, in order. A
 * factor never fails.
 */
template <std::size_t W, bool Factor, std::size_t... K>
bool
factorPacked(double *ab, std::size_t m, std::index_sequence<K...>)
{
    double col_norm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        col_norm2 += ab[i * W] * ab[i * W];
    return (reflectColumn<W, Factor, K>(ab, m, col_norm2,
                                        std::make_index_sequence<W - K>{}) &&
            ...);
}

/**
 * Least squares for a design of exactly N columns: pack [A | b],
 * factor it, and back-substitute R x = Q^T b. Returns false when the
 * design is rank deficient.
 */
template <std::size_t N>
bool
solveFixedWidth(const Matrix &a, const Vector &b, Vector &x)
{
    constexpr std::size_t W = N + 1;
    const std::size_t m = a.rows();
    auto ab = std::make_unique_for_overwrite<double[]>(m * W);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < N; ++c)
            ab[i * W + c] = a(i, c);
        ab[i * W + N] = b[i];
    }
    if (!factorPacked<W, false>(ab.get(), m,
                                std::make_index_sequence<N>{}))
        return false;

    x.assign(N, 0.0);
    for (std::size_t r = N; r-- > 0;) {
        const double *row = &ab[r * W];
        if (std::abs(row[r]) < 1e-12)
            return false;
        double acc = row[N];
        for (std::size_t j = r + 1; j < N; ++j)
            acc -= row[j] * x[j];
        x[r] = acc / row[r];
    }
    return true;
}

/**
 * The (N+1) x (N+1) triangular factor of [A | b] for a design of
 * exactly N columns. Zero rows pad a block shorter than N + 1 rows:
 * they add nothing to [A b]^T [A b], and the steps past the last real
 * row then see zero columns. The pack loop is solveFixedWidth's: as a
 * shared helper it changed the solve's register allocation at every
 * width.
 */
template <std::size_t N>
Matrix
factorFixedWidth(const Matrix &a, const Vector &b)
{
    constexpr std::size_t W = N + 1;
    const std::size_t m = std::max(a.rows(), W);
    auto ab = std::make_unique<double[]>(m * W);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t c = 0; c < N; ++c)
            ab[i * W + c] = a(i, c);
        ab[i * W + N] = b[i];
    }
    factorPacked<W, true>(ab.get(), m, std::make_index_sequence<W>{});
    // Below the diagonal the buffer holds what each reflection left of
    // the entries it zeroed: rounding residue, not part of R.
    Matrix r(W, W);
    for (std::size_t i = 0; i < W; ++i)
        for (std::size_t c = i; c < W; ++c)
            r(i, c) = ab[i * W + c];
    return r;
}

using FixedWidthSolver = bool (*)(const Matrix &, const Vector &,
                                  Vector &);
using FixedWidthFactor = Matrix (*)(const Matrix &, const Vector &);

template <std::size_t... I>
constexpr std::array<FixedWidthSolver, sizeof...(I)>
fixedWidthSolvers(std::index_sequence<I...>)
{
    return {&solveFixedWidth<I + 1>...};
}

template <std::size_t... I>
constexpr std::array<FixedWidthFactor, sizeof...(I)>
fixedWidthFactors(std::index_sequence<I...>)
{
    return {&factorFixedWidth<I + 1>...};
}

/**
 * solveFixedWidth<n> and factorFixedWidth<n> at index n - 1, for
 * n = 1..kMaxFeatures.
 */
constexpr std::array<FixedWidthSolver, kMaxFeatures> kFixedWidthSolvers =
    fixedWidthSolvers(std::make_index_sequence<kMaxFeatures>{});
constexpr std::array<FixedWidthFactor, kMaxFeatures> kFixedWidthFactors =
    fixedWidthFactors(std::make_index_sequence<kMaxFeatures>{});

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

/** Ridge coefficients from the normal equations. */
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

/** The shape checks every entry point makes. */
void
checkShape(const char *what, const Matrix &a, const Vector &b)
{
    fatalIf(a.rows() != b.size(), what, ": ", a.rows(), " rows vs ",
            b.size(), " targets");
    fatalIf(a.cols() == 0, what, ": empty design matrix");
    fatalIf(a.cols() > kMaxFeatures, what, ": ", a.cols(),
            " features, at most ", kMaxFeatures, " supported");
}

} // namespace

Matrix
triangularFactor(const Matrix &a, const Vector &b)
{
    checkShape("triangular factor", a, b);
    return kFixedWidthFactors[a.cols() - 1](a, b);
}

Matrix
mergeFactors(const Matrix &upper, const Matrix &lower)
{
    const std::size_t w = upper.cols();
    fatalIf(w < 2 || upper.rows() != w || lower.rows() != w ||
                lower.cols() != w,
            "merge factors: ", upper.rows(), " x ", w, " and ",
            lower.rows(), " x ", lower.cols(),
            " are not two factors of one width");
    Matrix a(2 * w, w - 1);
    Vector b(2 * w);
    for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t c = 0; c + 1 < w; ++c) {
            a(i, c) = upper(i, c);
            a(w + i, c) = lower(i, c);
        }
        b[i] = upper(i, w - 1);
        b[w + i] = lower(i, w - 1);
    }
    return triangularFactor(a, b);
}

LsqResult
solveLeastSquares(const Matrix &a, const Vector &b,
                  std::size_t represented_rows)
{
    checkShape("least squares", a, b);
    fatalIf(a.rows() < a.cols(),
            "least squares: underdetermined system (", a.rows(),
            " samples, ", a.cols(), " features)");

    LsqResult result;
    if (kFixedWidthSolvers[a.cols() - 1](a, b, result.coefficients))
        return result;

    // Rank-deficient design: fall back to a mild ridge penalty scaled
    // to the average squared feature magnitude. The sum of squares is
    // the trace of A^T A, which a stack of factors keeps; the average
    // is over the rows the design stands for.
    double scale = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            scale += a(r, c) * a(r, c);
    if (represented_rows == 0)
        represented_rows = a.rows();
    scale /= static_cast<double>(represented_rows);
    double lambda = std::max(1e-9, 1e-6 * scale);
    result.coefficients = ridgeCoefficients(a, b, lambda);
    result.rankDeficient = true;
    return result;
}

LsqResult
solveNonNegativeLeastSquares(const Matrix &a, const Vector &b,
                             std::size_t represented_rows)
{
    // Start from the unconstrained solution; repeatedly clamp negative
    // coefficients to zero and refit the remaining free columns.
    LsqResult result = solveLeastSquares(a, b, represented_rows);
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
            LsqResult sub_fit = solveLeastSquares(sub, b, represented_rows);
            for (std::size_t j = 0; j < free_cols.size(); ++j)
                coeffs[free_cols[j]] = sub_fit.coefficients[j];
            result.rankDeficient |= sub_fit.rankDeficient;
        }
        result.coefficients = coeffs;
    }
    for (double &c : result.coefficients)
        c = std::max(0.0, c);
    return result;
}

double
residualRmse(const Matrix &a, const Vector &b, const Vector &x)
{
    fatalIf(a.rows() != b.size() || a.cols() != x.size(),
            "residual rmse: ", a.rows(), " x ", a.cols(),
            " design vs ", b.size(), " targets and ", x.size(),
            " coefficients");
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

} // namespace linalg
} // namespace pcon
