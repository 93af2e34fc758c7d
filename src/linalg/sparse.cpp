#include "src/linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ironic::linalg {
namespace {

// Cached-pivot acceptance during numeric-only refactorization: the pivot
// chosen by the last full factorization must keep at least this fraction
// of its column's magnitude, or the solver re-pivots from scratch.
constexpr double kRefactorPivotSlack = 1e-3;

double magnitude(double v) { return std::abs(v); }
double magnitude(const Complex& v) { return std::abs(v); }

}  // namespace

template <typename T>
SparseSolver<T>::SparseSolver(std::size_t n) : n_(n) {
  row_ptr_.assign(n_ + 1, 0);
  work_.assign(n_, T{});
  mark_.assign(n_, 0);
  row_entry_.assign(n_, -1);
}

template <typename T>
int SparseSolver<T>::find_slot(int row, int col) const {
  if (!pattern_valid_) return -1;
  const auto lo = cols_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto hi = cols_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(lo, hi, col);
  if (it == hi || *it != col) return -1;
  return static_cast<int>(it - cols_.begin());
}

template <typename T>
void SparseSolver<T>::begin_assembly() {
  assembling_ = true;
  cursor_ = 0;
  extra_.clear();
  new_rc_.clear();
  new_slot_.clear();
  fast_ = seq_valid_;
  recording_ = !seq_valid_;
  had_pattern_ = pattern_valid_;
  if (pattern_valid_) std::fill(values_.begin(), values_.end(), T{});
}

template <typename T>
void SparseSolver<T>::add_slow(int row, int col, T value) {
  if (row < 0 || col < 0 || static_cast<std::size_t>(row) >= n_ ||
      static_cast<std::size_t>(col) >= n_) {
    throw std::out_of_range("SparseSolver::add: index out of range");
  }
  if (!assembling_) begin_assembly();
  const std::int64_t key = pack(row, col);
  if (fast_) {
    // Only an assembly's first call, armed just above, can match here:
    // add() took every other match inline.
    if (seq_rc_[cursor_] == key) {
      values_[static_cast<std::size_t>(seq_slot_[cursor_])] += value;
      ++cursor_;
      return;
    }
    // The stamp order diverged from the recorded sequence. Keep the
    // matched prefix and re-record the remainder through the slow path.
    ++stats_.sequence_divergences;
    fast_ = false;
    recording_ = true;
    new_rc_.assign(seq_rc_.begin(), seq_rc_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    new_slot_.assign(seq_slot_.begin(),
                     seq_slot_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = seq_rc_.size() - 1;
  }
  const int slot = find_slot(row, col);
  if (slot >= 0) {
    values_[static_cast<std::size_t>(slot)] += value;
    new_rc_.push_back(key);
    new_slot_.push_back(slot);
  } else {
    extra_.push_back({row, col, value});
    new_rc_.push_back(key);
    new_slot_.push_back(-1);  // resolved after the pattern merge
  }
}

template <typename T>
void SparseSolver<T>::merge_pattern() {
  // Keep every existing entry — structural zeros included, so the pattern
  // only ever grows and cached slots stay meaningful — and merge in the
  // overflow triplets.
  std::vector<std::pair<std::int64_t, T>> entries;
  entries.reserve(cols_.size() + extra_.size());
  if (pattern_valid_) {
    for (std::size_t r = 0; r < n_; ++r) {
      for (int p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        entries.emplace_back(pack(static_cast<int>(r), cols_[static_cast<std::size_t>(p)]),
                             values_[static_cast<std::size_t>(p)]);
      }
    }
  }
  for (const auto& t : extra_) entries.emplace_back(pack(t.row, t.col), t.value);
  extra_.clear();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  row_ptr_.assign(n_ + 1, 0);
  cols_.clear();
  values_.clear();
  cols_.reserve(entries.size());
  values_.reserve(entries.size());
  std::size_t i = 0;
  while (i < entries.size()) {
    const std::int64_t key = entries[i].first;
    T sum = entries[i].second;
    for (++i; i < entries.size() && entries[i].first == key; ++i) sum += entries[i].second;
    cols_.push_back(static_cast<int>(static_cast<std::uint32_t>(key)));
    values_.push_back(sum);
    ++row_ptr_[static_cast<std::size_t>(key >> 32) + 1];
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  pattern_valid_ = true;
}

template <typename T>
void SparseSolver<T>::finalize_assembly() {
  if (!assembling_) return;
  assembling_ = false;
  const bool rebuilt = !pattern_valid_ || !extra_.empty();
  if (rebuilt) {
    merge_pattern();
    csc_valid_ = false;
    symbolic_valid_ = false;
    ++stats_.pattern_builds;
  } else if (had_pattern_) {
    ++stats_.pattern_reuses;
  }
  if (recording_) {
    seq_rc_ = std::move(new_rc_);
    if (rebuilt) {
      // Recorded slots referenced the pre-merge pattern; re-resolve them.
      seq_slot_.resize(seq_rc_.size());
      for (std::size_t i = 0; i < seq_rc_.size(); ++i) {
        const int row = static_cast<int>(seq_rc_[i] >> 32);
        const int col = static_cast<int>(static_cast<std::uint32_t>(seq_rc_[i]));
        seq_slot_[i] = find_slot(row, col);
      }
    } else {
      seq_slot_ = std::move(new_slot_);
    }
    seq_rc_.push_back(kSeqEnd);
    seq_valid_ = true;
  }
  fast_ = false;
  recording_ = false;
  cursor_ = seq_rc_.size() - 1;
  stats_.nnz = cols_.size();
}

// The CSC view of the pattern and the column order read off its counts:
// both change only with the pattern.
template <typename T>
void SparseSolver<T>::build_csc() {
  const std::size_t nnz = cols_.size();
  csc_ptr_.assign(n_ + 1, 0);
  for (const int c : cols_) ++csc_ptr_[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < n_; ++c) csc_ptr_[c + 1] += csc_ptr_[c];
  csc_rows_.resize(nnz);
  csc_slots_.resize(nnz);
  std::vector<int> next(csc_ptr_.begin(), csc_ptr_.end() - 1);
  for (std::size_t r = 0; r < n_; ++r) {
    for (int p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const int c = cols_[static_cast<std::size_t>(p)];
      const int q = next[static_cast<std::size_t>(c)]++;
      csc_rows_[static_cast<std::size_t>(q)] = static_cast<int>(r);
      csc_slots_[static_cast<std::size_t>(q)] = p;
    }
  }
  col_order_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) col_order_[j] = static_cast<int>(j);
  // Ascending column count, index-stable ties: a cheap static Markowitz
  // flavor — eliminating thin columns first keeps fill-in low on the
  // arrow-shaped patterns voltage sources and coupling branches produce.
  std::sort(col_order_.begin(), col_order_.end(), [this](int a, int b) {
    const int ca = csc_ptr_[static_cast<std::size_t>(a) + 1] - csc_ptr_[static_cast<std::size_t>(a)];
    const int cb = csc_ptr_[static_cast<std::size_t>(b) + 1] - csc_ptr_[static_cast<std::size_t>(b)];
    if (ca != cb) return ca < cb;
    return a < b;
  });
  csc_valid_ = true;
}

template <typename T>
void SparseSolver<T>::clear_column_workspace() {
  for (const int r : touched_) {
    work_[static_cast<std::size_t>(r)] = T{};
    mark_[static_cast<std::size_t>(r)] = 0;
  }
  touched_.clear();
}

template <typename T>
void SparseSolver<T>::full_factor(double pivot_tol) {
  symbolic_valid_ = false;
  if (!csc_valid_) build_csc();
  // The pivots come first, one entry per step; the rest of lu_ grows a
  // step at a time.
  lu_.assign(n_, T{});
  idx_.assign(n_, -1);
  a_slot_.assign(n_, -1);
  entry_row_.assign(n_, -1);
  col_ptr_.assign(1, static_cast<int>(n_));
  l_ptr_.clear();
  updates_.clear();
  upd_ptr_.assign(1, 0);
  pivot_row_.assign(n_, -1);
  row_pos_.assign(n_, -1);
  clear_column_workspace();
  stats_.factor_nnz = n_;
  const auto push_entry = [this](T value, int step, int row) {
    lu_.push_back(value);
    idx_.push_back(step);
    a_slot_.push_back(-1);
    entry_row_.push_back(row);
  };

  for (std::size_t jj = 0; jj < n_; ++jj) {
    const int j = col_order_[jj];
    // Scatter column j of A into the dense accumulator.
    for (int p = csc_ptr_[static_cast<std::size_t>(j)];
         p < csc_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const int r = csc_rows_[static_cast<std::size_t>(p)];
      mark_[static_cast<std::size_t>(r)] = 1;
      touched_.push_back(r);
      work_[static_cast<std::size_t>(r)] = values_[static_cast<std::size_t>(csc_slots_[static_cast<std::size_t>(p)])];
    }
    // Eliminate with every earlier pivot whose row appears structurally,
    // recording each update with its target row; the row becomes an
    // entry of this column once the pivot is known. The scan is O(jj)
    // but each hit does real work; at MNA sizes the scan is noise next
    // to a dense O(n^3) elimination.
    const std::size_t step_updates = updates_.size();
    for (std::size_t kk = 0; kk < jj; ++kk) {
      const int pr = pivot_row_[kk];
      if (!mark_[static_cast<std::size_t>(pr)]) continue;
      const T ukj = work_[static_cast<std::size_t>(pr)];
      const int u = static_cast<int>(lu_.size());
      push_entry(ukj, static_cast<int>(kk), pr);
      for (int t = l_ptr_[kk]; t < col_ptr_[kk + 1]; ++t) {
        const int r = entry_row_[static_cast<std::size_t>(t)];
        if (!mark_[static_cast<std::size_t>(r)]) {
          mark_[static_cast<std::size_t>(r)] = 1;
          touched_.push_back(r);
        }
        work_[static_cast<std::size_t>(r)] -= lu_[static_cast<std::size_t>(t)] * ukj;
        updates_.push_back({r, t, u});
      }
    }
    l_ptr_.push_back(static_cast<int>(lu_.size()));
    // Partial pivot among the not-yet-pivoted structural rows. A NaN
    // anywhere in the candidates poisons the column: reject it (negated
    // comparison below), mirroring LuFactorization's NaN-aware check.
    int best = -1;
    double best_mag = -1.0;
    bool poisoned = false;
    for (const int r : touched_) {
      if (row_pos_[static_cast<std::size_t>(r)] >= 0) continue;
      const double mag = magnitude(work_[static_cast<std::size_t>(r)]);
      if (std::isnan(mag)) poisoned = true;
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    if (poisoned || best < 0 || !(best_mag >= pivot_tol)) {
      const double reported = poisoned ? std::numeric_limits<double>::quiet_NaN()
                                       : (best < 0 ? 0.0 : best_mag);
      // Close the column after its U entries, so factor_flops() counts
      // the updates it made.
      col_ptr_.push_back(static_cast<int>(lu_.size()));
      clear_column_workspace();
      throw SingularMatrixError("LU pivot " + std::to_string(jj) + " below tolerance (" +
                                std::to_string(reported) + ") — floating node or " +
                                "inconsistent circuit?");
    }
    pivot_row_[jj] = best;
    row_pos_[static_cast<std::size_t>(best)] = static_cast<int>(jj);
    const T piv = work_[static_cast<std::size_t>(best)];
    lu_[jj] = piv;
    for (const int r : touched_) {
      if (row_pos_[static_cast<std::size_t>(r)] >= 0) continue;
      push_entry(work_[static_cast<std::size_t>(r)] / piv, -1, r);
    }
    col_ptr_.push_back(static_cast<int>(lu_.size()));
    // Compile the step: each row of the column to its entry, which turns
    // the recorded update targets and the A rows into entries.
    row_entry_[static_cast<std::size_t>(best)] = static_cast<int>(jj);
    for (int t = col_ptr_[jj]; t < col_ptr_[jj + 1]; ++t) {
      row_entry_[static_cast<std::size_t>(entry_row_[static_cast<std::size_t>(t)])] = t;
    }
    for (std::size_t q = step_updates; q < updates_.size(); ++q) {
      updates_[q].t = row_entry_[static_cast<std::size_t>(updates_[q].t)];
    }
    for (int p = csc_ptr_[static_cast<std::size_t>(j)];
         p < csc_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const int t = row_entry_[static_cast<std::size_t>(csc_rows_[static_cast<std::size_t>(p)])];
      a_slot_[static_cast<std::size_t>(t)] = csc_slots_[static_cast<std::size_t>(p)];
    }
    upd_ptr_.push_back(static_cast<int>(updates_.size()));
    stats_.factor_nnz += static_cast<std::size_t>(col_ptr_[jj + 1] - col_ptr_[jj]);
    clear_column_workspace();
  }
  // Every row has its pivot now: the solve indexes L by elimination step.
  for (std::size_t jj = 0; jj < n_; ++jj) {
    for (int t = l_ptr_[jj]; t < col_ptr_[jj + 1]; ++t) {
      idx_[static_cast<std::size_t>(t)] =
          row_pos_[static_cast<std::size_t>(entry_row_[static_cast<std::size_t>(t)])];
    }
  }
  symbolic_valid_ = true;
}

template <typename T>
bool SparseSolver<T>::refactor_numeric(double pivot_tol) {
  // Replay the tape on the new numbers: same pivot order, same patterns,
  // no structural work. Every entry starts from its A slot or from zero,
  // so one gather fills the whole array; each step then applies its
  // updates, tests its pivot and divides its L entries. Every
  // floating-point operation has the operands and the order the full
  // factorization gave it. Fails (returns false) when a cached pivot
  // degrades, and the caller falls back to a full factorization.
  T* const lu = lu_.data();
  const T* const a = values_.data();
  for (std::size_t t = 0; t < lu_.size(); ++t) {
    const int slot = a_slot_[t];
    lu[t] = slot < 0 ? T{} : a[slot];
  }
  const Update* const up = updates_.data();
  for (std::size_t jj = 0; jj < n_; ++jj) {
    for (int q = upd_ptr_[jj]; q < upd_ptr_[jj + 1]; ++q) {
      lu[up[q].t] -= lu[up[q].l] * lu[up[q].u];
    }
    const T piv = lu[jj];
    const double piv_mag = magnitude(piv);
    // Largest not-yet-eliminated magnitude in the column (the pivot and
    // the L entries), for the stability check; NaN candidates fall to
    // the tolerance test.
    const int l_lo = l_ptr_[jj], l_hi = col_ptr_[jj + 1];
    double col_max = 0.0;
    if (piv_mag > col_max) col_max = piv_mag;
    for (int t = l_lo; t < l_hi; ++t) {
      const double mag = magnitude(lu[t]);
      if (mag > col_max) col_max = mag;
    }
    if (!(piv_mag >= pivot_tol) || !(piv_mag >= kRefactorPivotSlack * col_max)) return false;
    for (int t = l_lo; t < l_hi; ++t) lu[t] = lu[t] / piv;
  }
  return true;
}

template <typename T>
void SparseSolver<T>::factor(double pivot_tol) {
  finalize_assembly();
  if (n_ == 0) {
    factored_ = true;
    return;
  }
  // Both rungs overwrite the factors in place; one that throws leaves
  // none usable, so solve_in_place refuses to run until a factor()
  // succeeds.
  factored_ = false;
  if (symbolic_valid_ && refactor_numeric(pivot_tol)) {
    ++stats_.factorizations;
    ++stats_.refactorizations;
  } else {
    full_factor(pivot_tol);  // throws SingularMatrixError on failure
    ++stats_.factorizations;
  }
  factored_ = true;
}

template <typename T>
void SparseSolver<T>::solve_in_place(std::span<T> b) {
  if (b.size() != n_) {
    throw std::invalid_argument("SparseSolver::solve_in_place: size mismatch");
  }
  ++stats_.solves;
  if (n_ == 0) return;
  if (!factored_) {
    throw std::logic_error("SparseSolver::solve_in_place called before factor()");
  }
  fwd_.resize(n_);
  const T* const lu = lu_.data();
  const int* const idx = idx_.data();
  // y = L^-1 P b (unit-diagonal L), elimination order.
  for (std::size_t kk = 0; kk < n_; ++kk) {
    fwd_[kk] = b[static_cast<std::size_t>(pivot_row_[kk])];
  }
  for (std::size_t kk = 0; kk < n_; ++kk) {
    const T yk = fwd_[kk];
    if (yk == T{}) continue;
    for (int t = l_ptr_[kk]; t < col_ptr_[kk + 1]; ++t) {
      fwd_[static_cast<std::size_t>(idx[t])] -= lu[t] * yk;
    }
  }
  // Column-oriented back substitution over U, right to left.
  for (std::size_t jj = n_; jj-- > 0;) {
    const T zj = fwd_[jj] / lu[jj];
    fwd_[jj] = zj;
    if (zj == T{}) continue;
    for (int t = col_ptr_[jj]; t < l_ptr_[jj]; ++t) {
      fwd_[static_cast<std::size_t>(idx[t])] -= lu[t] * zj;
    }
  }
  for (std::size_t jj = 0; jj < n_; ++jj) {
    b[static_cast<std::size_t>(col_order_[jj])] = fwd_[jj];
  }
}

template <typename T>
double SparseSolver<T>::factor_flops() const {
  // Each recorded update is a multiply and a subtract; each L entry is
  // one divide by the pivot.
  double flops = 2.0 * static_cast<double>(updates_.size());
  for (std::size_t jj = 0; jj < l_ptr_.size(); ++jj) {
    flops += static_cast<double>(col_ptr_[jj + 1] - l_ptr_[jj]);
  }
  return flops;
}

template class SparseSolver<double>;
template class SparseSolver<Complex>;

}  // namespace ironic::linalg
