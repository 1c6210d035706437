#include "matrix.h"

#include <cmath>

#include "util/logging.h"

namespace pcon {
namespace linalg {

using util::panicIf;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    panicIf(r >= rows_ || c >= cols_,
            "Matrix::at out of range: (", r, ",", c, ") in ",
            rows_, "x", cols_);
    return (*this)(r, c);
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    panicIf(r >= rows_ || c >= cols_,
            "Matrix::at out of range: (", r, ",", c, ") in ",
            rows_, "x", cols_);
    return (*this)(r, c);
}

void
Matrix::appendRow(const Vector &row)
{
    if (rows_ == 0 && cols_ == 0)
        cols_ = row.size();
    panicIf(row.size() != cols_,
            "appendRow length ", row.size(), " != cols ", cols_);
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

Matrix
Matrix::operator*(const Matrix &rhs) const
{
    panicIf(cols_ != rhs.rows_, "matmul shape mismatch: ", rows_, "x",
            cols_, " * ", rhs.rows_, "x", rhs.cols_);
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            double lhs_rk = (*this)(r, k);
            if (lhs_rk == 0.0)
                continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c)
                out(r, c) += lhs_rk * rhs(k, c);
        }
    }
    return out;
}

Vector
Matrix::operator*(const Vector &rhs) const
{
    panicIf(cols_ != rhs.size(), "matvec shape mismatch: ", rows_, "x",
            cols_, " * ", rhs.size());
    Vector out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            acc += (*this)(r, c) * rhs[c];
        out[r] = acc;
    }
    return out;
}

double
dot(const Vector &a, const Vector &b)
{
    panicIf(a.size() != b.size(), "dot length mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
norm(const Vector &v)
{
    return std::sqrt(dot(v, v));
}

Vector
subtract(const Vector &a, const Vector &b)
{
    panicIf(a.size() != b.size(), "subtract length mismatch");
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

} // namespace linalg
} // namespace pcon
