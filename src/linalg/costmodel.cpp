#include "src/linalg/costmodel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace ironic::linalg {
namespace {

std::int64_t pack(int row, int col) {
  return (static_cast<std::int64_t>(row) << 32) |
         static_cast<std::uint32_t>(col);
}

struct LEntry {
  int row;
  double value;
};

}  // namespace

FactorPrediction predict_sparse_factor(std::size_t n,
                                       std::span<const MatrixEntry> entries,
                                       double pivot_tol) {
  FactorPrediction out;
  out.n = n;
  if (n == 0) return out;

  // --- pattern merge: keyed triplets in stamp order, sorted, summed ------
  // The key-only comparator and the (unstable) std::sort mirror
  // SparseSolver::merge_pattern on the identical input sequence, so the
  // summation order of duplicate stamps — and hence every downstream
  // pivot decision — is bit-identical to the solver's first assembly.
  std::vector<std::pair<std::int64_t, double>> keyed;
  keyed.reserve(entries.size());
  for (const auto& e : entries) keyed.emplace_back(pack(e.row, e.col), e.value);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<int> row_ptr(n + 1, 0);
  std::vector<int> cols;
  std::vector<double> values;
  cols.reserve(keyed.size());
  values.reserve(keyed.size());
  std::size_t i = 0;
  while (i < keyed.size()) {
    const std::int64_t key = keyed[i].first;
    double sum = keyed[i].second;
    for (++i; i < keyed.size() && keyed[i].first == key; ++i) sum += keyed[i].second;
    cols.push_back(static_cast<int>(static_cast<std::uint32_t>(key)));
    values.push_back(sum);
    ++row_ptr[static_cast<std::size_t>(key >> 32) + 1];
  }
  for (std::size_t r = 0; r < n; ++r) row_ptr[r + 1] += row_ptr[r];
  out.pattern_nnz = cols.size();

  // --- CSC view (rows ascending per column, CSR traversal order) ---------
  const std::size_t nnz = cols.size();
  std::vector<int> csc_ptr(n + 1, 0);
  for (const int c : cols) ++csc_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < n; ++c) csc_ptr[c + 1] += csc_ptr[c];
  std::vector<int> csc_rows(nnz);
  std::vector<int> csc_slots(nnz);
  std::vector<int> next(csc_ptr.begin(), csc_ptr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (int p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const int c = cols[static_cast<std::size_t>(p)];
      const int q = next[static_cast<std::size_t>(c)]++;
      csc_rows[static_cast<std::size_t>(q)] = static_cast<int>(r);
      csc_slots[static_cast<std::size_t>(q)] = p;
    }
  }

  // --- column pre-order: ascending count, index-stable ties --------------
  std::vector<int> col_order(n);
  for (std::size_t j = 0; j < n; ++j) col_order[j] = static_cast<int>(j);
  std::sort(col_order.begin(), col_order.end(), [&](int a, int b) {
    const int ca = csc_ptr[static_cast<std::size_t>(a) + 1] - csc_ptr[static_cast<std::size_t>(a)];
    const int cb = csc_ptr[static_cast<std::size_t>(b) + 1] - csc_ptr[static_cast<std::size_t>(b)];
    if (ca != cb) return ca < cb;
    return a < b;
  });

  // --- left-looking elimination, counting instead of storing U -----------
  std::vector<std::vector<LEntry>> lcols(n);
  std::vector<int> pivot_row(n, -1);
  std::vector<int> row_pos(n, -1);
  std::vector<double> work(n, 0.0);
  std::vector<char> mark(n, 0);
  std::vector<int> touched;
  std::size_t factor_nnz = n;
  std::size_t total_l = 0;
  std::size_t total_u = 0;

  for (std::size_t jj = 0; jj < n; ++jj) {
    const int j = col_order[jj];
    for (int p = csc_ptr[static_cast<std::size_t>(j)];
         p < csc_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const int r = csc_rows[static_cast<std::size_t>(p)];
      mark[static_cast<std::size_t>(r)] = 1;
      touched.push_back(r);
      work[static_cast<std::size_t>(r)] =
          values[static_cast<std::size_t>(csc_slots[static_cast<std::size_t>(p)])];
    }
    std::size_t ucol_size = 0;
    for (std::size_t kk = 0; kk < jj; ++kk) {
      const int pr = pivot_row[kk];
      if (!mark[static_cast<std::size_t>(pr)]) continue;
      const double ukj = work[static_cast<std::size_t>(pr)];
      ++ucol_size;
      for (const auto& e : lcols[kk]) {
        if (!mark[static_cast<std::size_t>(e.row)]) {
          mark[static_cast<std::size_t>(e.row)] = 1;
          touched.push_back(e.row);
        }
        work[static_cast<std::size_t>(e.row)] -= e.value * ukj;
      }
      out.factor_flops += 2.0 * static_cast<double>(lcols[kk].size());
    }
    int best = -1;
    double best_mag = -1.0;
    bool poisoned = false;
    for (const int r : touched) {
      if (row_pos[static_cast<std::size_t>(r)] >= 0) continue;
      const double mag = std::abs(work[static_cast<std::size_t>(r)]);
      if (std::isnan(mag)) poisoned = true;
      if (mag > best_mag) {
        best_mag = mag;
        best = r;
      }
    }
    if (poisoned || best < 0 || !(best_mag >= pivot_tol)) {
      out.singular = true;
      out.singular_column = jj;
      break;
    }
    pivot_row[jj] = best;
    row_pos[static_cast<std::size_t>(best)] = static_cast<int>(jj);
    const double piv = work[static_cast<std::size_t>(best)];
    auto& lcol = lcols[jj];
    for (const int r : touched) {
      if (row_pos[static_cast<std::size_t>(r)] >= 0) continue;
      lcol.push_back({r, work[static_cast<std::size_t>(r)] / piv});
    }
    out.factor_flops += static_cast<double>(lcol.size());
    factor_nnz += ucol_size + lcol.size();
    total_l += lcol.size();
    total_u += ucol_size;
    for (const int r : touched) {
      work[static_cast<std::size_t>(r)] = 0.0;
      mark[static_cast<std::size_t>(r)] = 0;
    }
    touched.clear();
  }
  out.factor_nnz = factor_nnz;
  out.solve_flops =
      2.0 * static_cast<double>(total_l + total_u) + static_cast<double>(n);
  return out;
}

}  // namespace ironic::linalg
