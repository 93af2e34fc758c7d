// Complex dense matrix + LU: the reference oracle for the complex sparse
// backend that runs AC (phasor) analysis.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace ironic::linalg {

using Complex = std::complex<double>;
using CVector = std::vector<Complex>;

class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Complex& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  Complex operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Complex* row(std::size_t r) { return data_.data() + r * cols_; }
  const Complex* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(Complex value);
  CVector multiply(std::span<const Complex> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

// Solve A x = b with partial-pivot LU. Throws SingularMatrixError (see
// lu.hpp) when a pivot vanishes.
CVector solve_complex(const CMatrix& a, std::span<const Complex> b);

}  // namespace ironic::linalg
