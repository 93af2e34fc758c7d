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
    if (cursor_ < seq_rc_.size() && seq_rc_[cursor_] == key) {
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
    seq_valid_ = true;
  }
  fast_ = false;
  recording_ = false;
  stats_.nnz = cols_.size();
}

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
  csc_valid_ = true;
}

template <typename T>
void SparseSolver<T>::build_col_order() {
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
  build_col_order();
  l_ptr_.assign(1, 0);
  l_row_.clear();
  l_val_.clear();
  u_ptr_.assign(1, 0);
  u_k_.clear();
  u_val_.clear();
  pivot_row_.assign(n_, -1);
  row_pos_.assign(n_, -1);
  upiv_.assign(n_, T{});
  // refactor_numeric leaves values behind in work_; the marking below
  // needs a zero accumulator.
  std::fill(work_.begin(), work_.end(), T{});
  clear_column_workspace();
  stats_.factor_nnz = n_;

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
    // Eliminate with every earlier pivot whose row appears structurally.
    // The scan is O(jj) but each hit does real work; at MNA sizes the
    // scan is noise next to a dense O(n^3) elimination.
    for (std::size_t kk = 0; kk < jj; ++kk) {
      const int pr = pivot_row_[kk];
      if (!mark_[static_cast<std::size_t>(pr)]) continue;
      const T ukj = work_[static_cast<std::size_t>(pr)];
      u_k_.push_back(static_cast<int>(kk));
      u_val_.push_back(ukj);
      for (int q = l_ptr_[kk]; q < l_ptr_[kk + 1]; ++q) {
        const int r = l_row_[static_cast<std::size_t>(q)];
        if (!mark_[static_cast<std::size_t>(r)]) {
          mark_[static_cast<std::size_t>(r)] = 1;
          touched_.push_back(r);
        }
        work_[static_cast<std::size_t>(r)] -= l_val_[static_cast<std::size_t>(q)] * ukj;
      }
    }
    u_ptr_.push_back(static_cast<int>(u_k_.size()));
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
      // Close the arrays after this column, so factor_flops() counts the
      // updates it made.
      u_ptr_.resize(n_ + 1, u_ptr_.back());
      l_ptr_.resize(n_ + 1, l_ptr_.back());
      clear_column_workspace();
      throw SingularMatrixError("LU pivot " + std::to_string(jj) + " below tolerance (" +
                                std::to_string(reported) + ") — floating node or " +
                                "inconsistent circuit?");
    }
    pivot_row_[jj] = best;
    row_pos_[static_cast<std::size_t>(best)] = static_cast<int>(jj);
    const T piv = work_[static_cast<std::size_t>(best)];
    upiv_[jj] = piv;
    for (const int r : touched_) {
      if (row_pos_[static_cast<std::size_t>(r)] >= 0) continue;
      l_row_.push_back(r);
      l_val_.push_back(work_[static_cast<std::size_t>(r)] / piv);
    }
    l_ptr_.push_back(static_cast<int>(l_row_.size()));
    stats_.factor_nnz += static_cast<std::size_t>(u_ptr_[jj + 1] - u_ptr_[jj]) +
                         static_cast<std::size_t>(l_ptr_[jj + 1] - l_ptr_[jj]);
    clear_column_workspace();
  }
  // Every row has its pivot now: the solve indexes L by elimination step.
  l_step_.resize(l_row_.size());
  for (std::size_t q = 0; q < l_row_.size(); ++q) {
    l_step_[q] = row_pos_[static_cast<std::size_t>(l_row_[q])];
  }
  symbolic_valid_ = true;
}

template <typename T>
bool SparseSolver<T>::refactor_numeric(double pivot_tol) {
  // Recompute the numbers along the cached elimination structure: same
  // pivot order, same L/U patterns, no structural work. Column jj's rows
  // are known — its U rows (earlier pivots), its pivot row and its L rows
  // — so they are zeroed up front rather than marked as they are touched.
  // Fails (returns false) when a cached pivot degrades, and the caller
  // falls back to a full factorization.
  for (std::size_t jj = 0; jj < n_; ++jj) {
    const int u_lo = u_ptr_[jj], u_hi = u_ptr_[jj + 1];
    const int l_lo = l_ptr_[jj], l_hi = l_ptr_[jj + 1];
    const auto prow = static_cast<std::size_t>(pivot_row_[jj]);
    for (int p = u_lo; p < u_hi; ++p) {
      const int k = u_k_[static_cast<std::size_t>(p)];
      work_[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])] = T{};
    }
    work_[prow] = T{};
    for (int q = l_lo; q < l_hi; ++q) {
      work_[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(q)])] = T{};
    }
    const int j = col_order_[jj];
    for (int p = csc_ptr_[static_cast<std::size_t>(j)];
         p < csc_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      work_[static_cast<std::size_t>(csc_rows_[static_cast<std::size_t>(p)])] =
          values_[static_cast<std::size_t>(csc_slots_[static_cast<std::size_t>(p)])];
    }
    for (int p = u_lo; p < u_hi; ++p) {
      const auto k = static_cast<std::size_t>(u_k_[static_cast<std::size_t>(p)]);
      const T ukj = work_[static_cast<std::size_t>(pivot_row_[k])];
      u_val_[static_cast<std::size_t>(p)] = ukj;
      for (int q = l_ptr_[k]; q < l_ptr_[k + 1]; ++q) {
        work_[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(q)])] -=
            l_val_[static_cast<std::size_t>(q)] * ukj;
      }
    }
    const T piv = work_[prow];
    const double piv_mag = magnitude(piv);
    // Largest not-yet-eliminated magnitude in the column (the pivot row
    // and the L rows), for the stability check; NaN candidates fall to
    // the tolerance test.
    double col_max = 0.0;
    if (piv_mag > col_max) col_max = piv_mag;
    for (int q = l_lo; q < l_hi; ++q) {
      const double mag =
          magnitude(work_[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(q)])]);
      if (mag > col_max) col_max = mag;
    }
    if (!(piv_mag >= pivot_tol) || !(piv_mag >= kRefactorPivotSlack * col_max)) return false;
    upiv_[jj] = piv;
    for (int q = l_lo; q < l_hi; ++q) {
      l_val_[static_cast<std::size_t>(q)] =
          work_[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(q)])] / piv;
    }
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
  // y = L^-1 P b (unit-diagonal L), elimination order.
  for (std::size_t kk = 0; kk < n_; ++kk) {
    fwd_[kk] = b[static_cast<std::size_t>(pivot_row_[kk])];
  }
  for (std::size_t kk = 0; kk < n_; ++kk) {
    const T yk = fwd_[kk];
    if (yk == T{}) continue;
    for (int q = l_ptr_[kk]; q < l_ptr_[kk + 1]; ++q) {
      fwd_[static_cast<std::size_t>(l_step_[static_cast<std::size_t>(q)])] -=
          l_val_[static_cast<std::size_t>(q)] * yk;
    }
  }
  // Column-oriented back substitution over U, right to left.
  for (std::size_t jj = n_; jj-- > 0;) {
    const T zj = fwd_[jj] / upiv_[jj];
    fwd_[jj] = zj;
    if (zj == T{}) continue;
    for (int p = u_ptr_[jj]; p < u_ptr_[jj + 1]; ++p) {
      fwd_[static_cast<std::size_t>(u_k_[static_cast<std::size_t>(p)])] -=
          u_val_[static_cast<std::size_t>(p)] * zj;
    }
  }
  for (std::size_t jj = 0; jj < n_; ++jj) {
    b[static_cast<std::size_t>(col_order_[jj])] = fwd_[jj];
  }
}

template <typename T>
double SparseSolver<T>::factor_flops() const {
  // Each U entry applies its pivot's L column (a multiply and a subtract
  // per entry); each L entry is one divide by the pivot.
  double flops = 0.0;
  for (std::size_t jj = 0; jj + 1 < u_ptr_.size(); ++jj) {
    for (int p = u_ptr_[jj]; p < u_ptr_[jj + 1]; ++p) {
      const auto k = static_cast<std::size_t>(u_k_[static_cast<std::size_t>(p)]);
      flops += 2.0 * static_cast<double>(l_ptr_[k + 1] - l_ptr_[k]);
    }
    flops += static_cast<double>(l_ptr_[jj + 1] - l_ptr_[jj]);
  }
  return flops;
}

template class SparseSolver<double>;
template class SparseSolver<Complex>;

}  // namespace ironic::linalg
