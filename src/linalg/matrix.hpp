// Dense row-major matrix.
//
// The MNA engines assemble into the sparse solver
// (src/linalg/sparse.hpp) and never use dense storage. This type backs
// the dense reference LU (lu.hpp) that the tests check the sparse
// backend against.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ironic::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  // Raw row access (contiguous) for the LU inner loops.
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(double value);
  void resize(std::size_t rows, std::size_t cols);

  Vector multiply(std::span<const double> x) const;  // y = A x
  Matrix multiply(const Matrix& other) const;        // C = A B
  Matrix transposed() const;

  // Max-abs norm of the matrix entries.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// y = a x + y
void axpy(double a, std::span<const double> x, std::span<double> y);
// Euclidean norm.
double norm2(std::span<const double> x);
// Max-abs norm.
double norm_inf(std::span<const double> x);
// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace ironic::linalg
