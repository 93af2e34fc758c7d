// Static fill prediction for the sparse backend (DESIGN.md §13). The
// symbolic predictor replays the SparseSolver assembly (triplet merge in
// stamp order) and left-looking column LU — same column pre-order, same
// partial-pivot rule — on a caller-supplied numeric snapshot of the
// matrix, so the predicted factor nnz matches
// SparseSolver::stats().factor_nnz exactly for the same values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/linalg/solver.hpp"

namespace ironic::linalg {

// One stamped contribution, in stamp-call order. Duplicates are summed
// during the pattern merge exactly as SparseSolver does.
struct MatrixEntry {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

struct FactorPrediction {
  std::size_t n = 0;
  std::size_t pattern_nnz = 0;  // structural nonzeros of A after merge
  std::size_t factor_nnz = 0;   // nonzeros of L+U incl. fill
  double factor_flops = 0.0;    // multiply-add + divide count of one factorization
  double solve_flops = 0.0;     // one forward+back substitution
  bool singular = false;        // a pivot fell below tolerance
  std::size_t singular_column = 0;  // elimination position that failed (when singular)
};

// Replay the sparse factorization on `entries` and count its work.
// `pivot_tol` mirrors LinearSolverT::kDefaultPivotTol.
FactorPrediction predict_sparse_factor(
    std::size_t n, std::span<const MatrixEntry> entries,
    double pivot_tol = LinearSolverT<double>::kDefaultPivotTol);

}  // namespace ironic::linalg
