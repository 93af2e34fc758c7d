// The linear solver behind every MNA solve (DESIGN.md §11): CSR assembly
// with a call-sequence slot cache and a left-looking partial-pivot LU
// with symbolic caching. The engines call it directly, and the static
// sparsity pass factors a circuit's first DC assembly with it once to
// report the pattern, the fill and the flop counts. The dense
// LuFactorization (lu.hpp) and solve_complex (complex_matrix.hpp) stay
// as the reference oracles the tests compare it against.
//
// Assembly. Devices call add(r, c, v) in whatever order their stamps
// produce. The first assembly records that call sequence, closed by a
// sentinel key no call packs to; subsequent assemblies replay it with a
// cursor, so the steady state is one compare plus one indexed accumulate
// per stamp — no hashing, no searches, no bounds test — and that replay
// is inline here; every other call (the range check, the first call of
// an assembly, recording) goes out of line. When the order diverges (a
// device whose stamp calls depend on its operating point; the shipped
// devices keep one order, see DESIGN.md §11.1), the matched prefix is
// kept, the rest falls back to a binary search per entry, and the
// sequence is re-recorded — a speed blip, never a correctness issue
// (counted in sequence_divergences).
// Entries the pattern has never seen land in an overflow triplet list and
// are merged at factor() time (capacitors stamp nothing at DC, so a DC
// solve followed by a transient grows the pattern once).
//
// Factorization. Left-looking column LU with a dense accumulator, partial
// pivoting, and a static column pre-order by ascending column count (a
// cheap Markowitz flavor that keeps fill low on MNA matrices), computed
// once per pattern. Structure
// decisions are symbolic — an entry that is numerically zero this
// iteration still occupies its slot — so the full factorization compiles
// the elimination into a tape: one factor array (the pivots, then each
// step's U and L entries), the A slot or fill zero each entry starts
// from, and the flat list of lu[t] -= lu[l] * lu[u] updates in
// elimination order. A later factorization of the same pattern gathers
// A into the array and replays the tape; the triangular solves read the
// same array. If a cached pivot degrades (falls below tolerance or loses
// too much ground to its column), the solver silently falls back to a
// fresh full factorization before reporting SingularMatrixError. A
// caller that knows its matrix did not change, like the transient engine
// on a linear circuit, skips assembly and factor() altogether and only
// solves. forget_pivots() makes the next factor() a full one on the kept
// pattern and stamp sequence: an analysis run calls it first, so its
// pivots come from its own matrices, never from an earlier run's.
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
    // Outside a replay the cursor rests on kSeqEnd, which no call matches.
    if (seq_rc_[cursor_] == pack(row, col)) {
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
  // The next factor() is a full factorization that picks its pivots
  // afresh; the pattern, column order and recorded stamp sequence stay.
  // Until then the solver holds no factors.
  void forget_pivots() {
    symbolic_valid_ = false;
    factored_ = false;
  }
  void solve_in_place(std::span<T> b);
  const SolverStats& stats() const { return stats_; }

  // Structural nonzeros of the cached pattern.
  std::size_t pattern_nnz() const { return cols_.size(); }
  // Multiply-add and divide count of the last full factorization, read
  // off the tape it left. A factorization that threw counts the columns
  // it eliminated, the failing one's updates included; its
  // stats().factor_nnz likewise counts the columns that got a pivot.
  double factor_flops() const;

 private:
  // Row in the high half, column in the low one. A negative column
  // sign-extends over the row half, so every such call packs with row
  // bits all ones: a key with a zero row half and a negative column half,
  // like kSeqEnd, is one no call produces.
  static std::int64_t pack(int row, int col) {
    return (static_cast<std::int64_t>(row) << 32) | static_cast<std::int64_t>(col);
  }
  static constexpr std::int64_t kSeqEnd = 0xffffffff;

  // One step of the refactorization tape: lu[t] -= lu[l] * lu[u].
  struct Update {
    int t, l, u;
  };

  void add_slow(int row, int col, T value);
  int find_slot(int row, int col) const;
  void finalize_assembly();
  void merge_pattern();
  void build_csc();
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
  // Packed (row, col) per recorded call, then kSeqEnd.
  std::vector<std::int64_t> seq_rc_{kSeqEnd};
  std::vector<std::int32_t> seq_slot_; // slot into values_ per recorded call
  bool seq_valid_ = false;
  // Per-assembly state.
  bool assembling_ = false;
  bool fast_ = false;       // cursor replay still aligned with seq_rc_
  bool recording_ = false;  // re-recording the sequence this assembly
  bool had_pattern_ = false;
  std::size_t cursor_ = 0;  // next expected call; at kSeqEnd outside a replay
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

  // --- cached factorization: the compiled tape ---------------------------
  // lu_ holds the factors. Entries [0, n_) are the U diagonal in
  // elimination order, contiguous for the back substitution's chain of
  // divisions. Step jj's U entries are [col_ptr_[jj], l_ptr_[jj]), its L
  // multipliers (unit diagonal implied) [l_ptr_[jj], col_ptr_[jj + 1]).
  // idx_ gives a U entry the step whose pivot row it sits in, an L entry
  // its row's elimination step: the solves index by it. a_slot_ is the
  // values_ slot each entry starts from (-1: fill, starts at zero), and
  // step jj's updates are updates_[upd_ptr_[jj], upd_ptr_[jj + 1]), in
  // the order the full factorization made them.
  std::vector<T> lu_;
  std::vector<int> col_ptr_, l_ptr_, idx_, a_slot_;
  std::vector<Update> updates_;
  std::vector<int> upd_ptr_;
  std::vector<int> pivot_row_;  // elimination step -> original row
  std::vector<int> row_pos_;    // original row -> elimination step
  std::vector<int> col_order_;  // elimination step -> original column
  bool symbolic_valid_ = false;
  bool factored_ = false;

  // --- scratch -------------------------------------------------------------
  // full_factor's; work_ and mark_ are zero between its columns.
  std::vector<T> work_;              // dense column accumulator
  std::vector<unsigned char> mark_;  // rows in the column so far
  std::vector<int> touched_;         // ... in the order they entered it
  std::vector<int> entry_row_;       // original row of each U and L entry
  std::vector<int> row_entry_;       // original row -> its entry in the column
  std::vector<T> fwd_;               // solve_in_place's, elimination order

  SolverStats stats_;
};

extern template class SparseSolver<double>;
extern template class SparseSolver<Complex>;

}  // namespace ironic::linalg
