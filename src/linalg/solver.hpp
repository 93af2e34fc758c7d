// Linear-solver layer behind the MNA engines (DESIGN.md §11).
//
// The circuit engines assemble A x = rhs through this interface instead
// of a concrete matrix type: an assembly pass (`begin_assembly` + `add`)
// followed by `factor` + `solve_in_place` per Newton iteration. The one
// production backend is SparseSolver (src/linalg/sparse.hpp): CSR
// storage with a cached call-sequence slot map for O(1) re-stamping,
// symbolic-pattern caching, and numeric-only refactorization. The dense
// LuFactorization (lu.hpp) and solve_complex (complex_matrix.hpp) stay
// as the reference oracles the tests compare it against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "src/linalg/complex_matrix.hpp"
#include "src/linalg/lu.hpp"

namespace ironic::linalg {

// Counters a backend maintains across its lifetime. Callers that want
// per-run numbers snapshot stats() before and after and subtract.
struct SolverStats {
  std::uint64_t factorizations = 0;   // numeric factorizations performed
  std::uint64_t refactorizations = 0; // ... of which reused cached symbolic structure
  std::uint64_t factor_skips = 0;     // factor() calls with bit-identical values
  std::uint64_t solves = 0;           // triangular solve_in_place calls
  std::uint64_t pattern_builds = 0;   // sparsity-pattern (re)constructions
  std::uint64_t pattern_reuses = 0;   // assemblies that fit the cached pattern
  std::size_t nnz = 0;                // structural nonzeros of A
  std::size_t factor_nnz = 0;         // nonzeros of L+U incl. fill
};

// One linear system A x = b of fixed size n, reusable across solves.
// Assembly protocol per Newton iteration:
//
//   solver.begin_assembly();          // zero A, arm the slot cache
//   solver.add(r, c, v); ...          // accumulate stamps (any order)
//   solver.factor();                  // throws SingularMatrixError
//   solver.solve_in_place(b);         // b := A^-1 b
//
// add() ignores nothing: callers filter ground (negative) indices first,
// as the Device stamping helpers already do.
template <typename T>
class LinearSolverT {
 public:
  static constexpr double kDefaultPivotTol = 1e-30;

  virtual ~LinearSolverT() = default;

  virtual const char* name() const = 0;
  virtual std::size_t size() const = 0;

  virtual void begin_assembly() = 0;
  virtual void add(int row, int col, T value) = 0;

  // Factor the assembled matrix. Throws SingularMatrixError when a pivot
  // falls below `pivot_tol` (NaN-aware: poisoned stamps are rejected here
  // rather than propagated through the solve).
  virtual void factor(double pivot_tol) = 0;
  void factor() { factor(kDefaultPivotTol); }

  virtual void solve_in_place(std::span<T> b) = 0;

  // Conditioning estimate of the last factorization: max|U_ii|/min|U_ii|,
  // the same semantics as LuFactorization::diagonal_ratio.
  virtual double diagonal_ratio() const = 0;

  // Drop every cached structure (pattern, slot sequence, symbolic
  // factorization). Correctness never requires this — unseen entries are
  // merged automatically — but it returns the solver to a cold state
  // after a topology change when the caller prefers a rebuilt pattern
  // over a grown one.
  virtual void invalidate_structure() = 0;

  virtual const SolverStats& stats() const = 0;
};

using LinearSolver = LinearSolverT<double>;
using ComplexLinearSolver = LinearSolverT<Complex>;

// The production backend (SparseSolver) for an n-unknown system.
std::unique_ptr<LinearSolver> make_solver(std::size_t n);
std::unique_ptr<ComplexLinearSolver> make_complex_solver(std::size_t n);

}  // namespace ironic::linalg
