/**
 * @file
 * Dense row-major matrix and vector types used by the least-squares
 * model calibration. Deliberately small: only the operations the power
 * model fitting needs.
 */

#ifndef PCON_LINALG_MATRIX_H
#define PCON_LINALG_MATRIX_H

#include <cstddef>
#include <vector>

namespace pcon {
namespace linalg {

/** A dense column vector of doubles. */
using Vector = std::vector<double>;

/**
 * Dense row-major matrix of doubles. operator() is the unchecked
 * access, defined inline: the recalibrator fills a ~4,700 x 8 refit
 * design through it 100 times per simulated second, and the solvers
 * read every element through it when they pack [A | b] and when they
 * compute residuals. An out-of-line call per access would cost more
 * than that work. The QR itself runs on the packed copy, with a
 * row width fixed at compile time (linalg/least_squares.h). at() is
 * the bounds-checked form.
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Number of rows. */
    std::size_t rows() const { return rows_; }

    /** Number of columns. */
    std::size_t cols() const { return cols_; }

    /** Unchecked element access. */
    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    /** Unchecked element access (const). */
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Checked element access; panics out of range. */
    double &at(std::size_t r, std::size_t c);

    /** Checked element access (const). */
    double at(std::size_t r, std::size_t c) const;

    /** Append one row (length must equal cols, or set cols if empty). */
    void appendRow(const Vector &row);

    /** Matrix transpose. */
    Matrix transposed() const;

    /** Matrix-matrix product; panics on shape mismatch. */
    Matrix operator*(const Matrix &rhs) const;

    /** Matrix-vector product; panics on shape mismatch. */
    Vector operator*(const Vector &rhs) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product; panics on length mismatch. */
double dot(const Vector &a, const Vector &b);

/** Euclidean norm. */
double norm(const Vector &v);

/** Elementwise a - b; panics on length mismatch. */
Vector subtract(const Vector &a, const Vector &b);

} // namespace linalg
} // namespace pcon

#endif // PCON_LINALG_MATRIX_H
