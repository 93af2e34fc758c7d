// Dense LU factorization with partial pivoting: the reference oracle the
// sparse backend (src/linalg/sparse.hpp), which runs every Newton
// iteration of the circuit engine, is tested against.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace ironic::linalg {

// Factorization state reusable across solves with the same matrix.
class LuFactorization {
 public:
  // Factor A in place (a copy is stored). Throws SingularMatrixError if a
  // pivot below `pivot_tol` is encountered.
  explicit LuFactorization(const Matrix& a, double pivot_tol = 1e-30);

  std::size_t size() const { return lu_.rows(); }

  // Solve A x = b.
  Vector solve(std::span<const double> b) const;
  // In-place variant used by the Newton loop to avoid reallocations.
  void solve_in_place(std::span<double> b) const;

  // Growth-based estimate of how badly conditioned the factorization is:
  // max |U_ii| / min |U_ii|. Cheap and adequate for detecting the
  // near-singular matrices produced by floating circuit nodes.
  double diagonal_ratio() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

struct SingularMatrixError : std::runtime_error {
  explicit SingularMatrixError(const std::string& what) : std::runtime_error(what) {}
};

// One-shot convenience: solve A x = b.
Vector solve(const Matrix& a, std::span<const double> b);

}  // namespace ironic::linalg
