// The linear solver behind every MNA solve (DESIGN.md §11): CSR assembly
// with a call-sequence slot cache and a left-looking partial-pivot LU
// with symbolic caching. The engines call it directly, and the static
// sparsity pass factors a circuit's first DC assembly with it once to
// report the pattern, the fill and the flop counts. The dense
// LuFactorization (lu.hpp) and solve_complex (complex_matrix.hpp) stay
// as the reference oracles the tests compare it against.
//
// Assembly. Devices call add(r, c, v) in whatever order their stamps
// produce. The first assembly records that call sequence; subsequent
// assemblies replay it with a cursor, so the steady state is one compare
// plus one indexed accumulate per stamp — no hashing, no searches — and
// that replay is inline here; every other call (the range check, the
// first call of an assembly, recording) goes out of line. When the
// order diverges (a MOSFET swapping source/drain roles between
// operating regions reorders its stamp calls), the matched prefix is
// kept, the rest falls back to a binary search per entry, and the
// sequence is re-recorded — a speed blip, never a correctness issue
// (counted in sequence_divergences).
// Entries the pattern has never seen land in an overflow triplet list and
// are merged at factor() time (capacitors stamp nothing at DC, so a DC
// solve followed by a transient grows the pattern once).
//
// Factorization. Left-looking column LU with a dense accumulator, partial
// pivoting, and a static column pre-order by ascending column count (a
// cheap Markowitz flavor that keeps fill low on MNA matrices). Structure
// decisions are symbolic — an entry that is numerically zero this
// iteration still occupies its slot — so the elimination structure (pivot
// order, L/U patterns) is cached and later factorizations only redo the
// numbers along it. L and U are stored as flat column arrays, and a
// refactorization knows each column's rows up front (its U rows, its
// pivot row, its L rows), so it zeroes exactly those in the accumulator
// instead of marking the rows it touches. If a cached pivot degrades
// (falls below tolerance or loses too much ground to its column), the
// solver silently falls back to a fresh full factorization before
// reporting SingularMatrixError. A caller that knows its matrix did not
// change, like the transient engine on a linear circuit, skips assembly
// and factor() altogether and only solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/linalg/complex_matrix.hpp"
#include "src/linalg/lu.hpp"

namespace ironic::linalg {

inline constexpr double kDefaultPivotTol = 1e-30;

// Counters a solver maintains across its lifetime. Callers that want
// per-run numbers snapshot stats() before and after and subtract.
struct SolverStats {
  std::uint64_t factorizations = 0;   // numeric factorizations performed
  std::uint64_t refactorizations = 0; // ... of which reused cached symbolic structure
  std::uint64_t solves = 0;           // triangular solve_in_place calls
  std::uint64_t pattern_builds = 0;   // sparsity-pattern (re)constructions
  std::uint64_t pattern_reuses = 0;   // assemblies that fit the cached pattern
  std::uint64_t sequence_divergences = 0;  // assemblies that left the recorded call order
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
class SparseSolver {
 public:
  explicit SparseSolver(std::size_t n);

  std::size_t size() const { return n_; }

  void begin_assembly();
  void add(int row, int col, T value) {
    // Replay: the call the recorded sequence expects next. A match implies
    // the indices are in range, since only checked calls are recorded.
    if (fast_ && cursor_ < seq_rc_.size() && seq_rc_[cursor_] == pack(row, col)) {
      values_[static_cast<std::size_t>(seq_slot_[cursor_])] += value;
      ++cursor_;
      return;
    }
    add_slow(row, col, value);
  }
  // Factor the assembled matrix. Throws SingularMatrixError when a pivot
  // falls below `pivot_tol` (NaN-aware: poisoned stamps are rejected here
  // rather than propagated through the solve).
  void factor(double pivot_tol = kDefaultPivotTol);
  void solve_in_place(std::span<T> b);
  const SolverStats& stats() const { return stats_; }

  // Structural nonzeros of the cached pattern.
  std::size_t pattern_nnz() const { return cols_.size(); }
  // Multiply-add and divide count of the last full factorization, read
  // off the L/U columns it left. A factorization that threw counts the
  // columns it eliminated, the failing one's updates included; its
  // stats().factor_nnz likewise counts the columns that got a pivot.
  double factor_flops() const;

 private:
  static std::int64_t pack(int row, int col) {
    return (static_cast<std::int64_t>(row) << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(col));
  }

  void add_slow(int row, int col, T value);
  int find_slot(int row, int col) const;
  void finalize_assembly();
  void merge_pattern();
  void build_csc();
  void build_col_order();
  void full_factor(double pivot_tol);
  bool refactor_numeric(double pivot_tol);
  void clear_column_workspace();

  std::size_t n_ = 0;

  // --- assembled matrix (CSR; columns sorted within each row) -------------
  std::vector<int> row_ptr_;  // n_ + 1
  std::vector<int> cols_;     // nnz
  std::vector<T> values_;     // nnz, current assembly
  bool pattern_valid_ = false;

  // --- call-sequence slot cache -------------------------------------------
  std::vector<std::int64_t> seq_rc_;   // packed (row, col) per recorded call
  std::vector<std::int32_t> seq_slot_; // slot into values_ per recorded call
  bool seq_valid_ = false;
  // Per-assembly state.
  bool assembling_ = false;
  bool fast_ = false;       // cursor replay still aligned with seq_rc_
  bool recording_ = false;  // re-recording the sequence this assembly
  bool had_pattern_ = false;
  std::size_t cursor_ = 0;
  std::vector<std::int64_t> new_rc_;
  std::vector<std::int32_t> new_slot_;
  struct Triplet {
    int row;
    int col;
    T value;
  };
  std::vector<Triplet> extra_;  // entries outside the current pattern

  // --- CSC view of the pattern (column access for the factorization) -----
  std::vector<int> csc_ptr_, csc_rows_, csc_slots_;
  bool csc_valid_ = false;

  // --- cached factorization -----------------------------------------------
  // Flat column arrays, indexed by elimination step jj. L column jj (unit
  // diagonal implied) is entries l_ptr_[jj] .. l_ptr_[jj + 1]: original
  // row, that row's elimination step (what the solve indexes by), and the
  // multiplier. U column jj is u_ptr_[jj] .. u_ptr_[jj + 1]: the step k of
  // the pivot each entry multiplies, and the value.
  std::vector<int> l_ptr_, l_row_, l_step_;
  std::vector<T> l_val_;
  std::vector<int> u_ptr_, u_k_;
  std::vector<T> u_val_;
  std::vector<int> pivot_row_;  // elimination step -> original row
  std::vector<int> row_pos_;    // original row -> elimination step
  std::vector<int> col_order_;  // elimination step -> original column
  std::vector<T> upiv_;         // U diagonal, elimination order
  bool symbolic_valid_ = false;
  bool factored_ = false;

  // --- scratch -------------------------------------------------------------
  std::vector<T> work_;              // dense column accumulator
  std::vector<unsigned char> mark_;  // full_factor: rows in the column so far
  std::vector<int> touched_;         // ... in the order they entered it
  std::vector<T> fwd_;

  SolverStats stats_;
};

extern template class SparseSolver<double>;
extern template class SparseSolver<Complex>;

}  // namespace ironic::linalg
