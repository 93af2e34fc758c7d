// Unit tests for the sparse MNA backend (src/linalg/sparse.hpp): parity
// with the dense reference LU (LuFactorization, solve_complex) on random
// systems, slot-cache behaviour under pattern growth and stamp
// reordering, the refactor / full-factor ladder (with bit-exact pins of
// every rung), and the NaN-aware singular diagnostics shared with the
// reference.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <random>
#include <vector>

#include "src/linalg/complex_matrix.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/sparse.hpp"
#include "src/util/fingerprint.hpp"

using namespace ironic::linalg;
using ironic::util::Fingerprint;

namespace {

struct Entry {
  int row;
  int col;
  double value;
};

void assemble(SparseSolver<double>& s, const std::vector<Entry>& entries) {
  s.begin_assembly();
  for (const auto& e : entries) s.add(e.row, e.col, e.value);
}

// Random diagonally-dominant sparse system, deterministic per (n, seed).
std::vector<Entry> random_system(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  std::vector<Entry> entries;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    entries.push_back({i, i, 4.0 + val(rng)});
    for (int k = 0; k < 3; ++k) {
      entries.push_back({i, pick(rng), val(rng)});
      entries.push_back({pick(rng), i, val(rng)});
    }
  }
  return entries;
}

std::vector<double> solve_with(SparseSolver<double>& s, const std::vector<Entry>& entries,
                               const std::vector<double>& rhs) {
  assemble(s, entries);
  s.factor();
  std::vector<double> x = rhs;
  s.solve_in_place(x);
  return x;
}

// The same triplets summed into a dense matrix for the reference LU.
Matrix dense_matrix(std::size_t n, const std::vector<Entry>& entries) {
  Matrix a(n, n);
  for (const auto& e : entries) {
    a(static_cast<std::size_t>(e.row), static_cast<std::size_t>(e.col)) += e.value;
  }
  return a;
}

// Reference solution from the dense partial-pivot LU.
std::vector<double> reference_solve(std::size_t n, const std::vector<Entry>& entries,
                                    const std::vector<double>& rhs) {
  return LuFactorization(dense_matrix(n, entries)).solve(rhs);
}

}  // namespace

TEST(SparseSolver, MatchesDenseOnRandomSystems) {
  for (const std::size_t n : {2u, 5u, 17u, 64u}) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      const auto entries = random_system(n, seed);
      std::vector<double> rhs(n);
      for (std::size_t i = 0; i < n; ++i) rhs[i] = std::sin(1.0 + double(i));
      SparseSolver<double> sparse(n);
      const auto xd = reference_solve(n, entries, rhs);
      const auto xs = solve_with(sparse, entries, rhs);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])))
            << "n=" << n << " seed=" << seed << " i=" << i;
      }
    }
  }
}

TEST(SparseSolver, EmptySystemIsANoOp) {
  SparseSolver<double> s(0);
  s.begin_assembly();
  EXPECT_NO_THROW(s.factor());
  std::vector<double> b;
  EXPECT_NO_THROW(s.solve_in_place(b));
}

TEST(SparseSolver, OneByOneSolves) {
  SparseSolver<double> s(1);
  s.begin_assembly();
  s.add(0, 0, 2.0);
  s.factor();
  std::vector<double> b{6.0};
  s.solve_in_place(b);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_EQ(s.pattern_nnz(), 1u);
}

TEST(SparseSolver, AddRejectsOutOfRangeIndices) {
  SparseSolver<double> s(2);
  s.begin_assembly();
  EXPECT_THROW(s.add(-1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(s.add(0, 2, 1.0), std::out_of_range);
  // The pairs a sentinel ending the recorded call sequence could be
  // mistaken for, on a fresh solver and on one replaying a recording.
  EXPECT_THROW(s.add(-1, -1, 1.0), std::out_of_range);
  EXPECT_THROW(s.add(2, 2, 1.0), std::out_of_range);
  s.add(0, 0, 1.0);
  s.add(1, 1, 1.0);
  s.factor();
  s.begin_assembly();
  s.add(0, 0, 1.0);
  s.add(1, 1, 1.0);
  EXPECT_THROW(s.add(-1, -1, 1.0), std::out_of_range);
  EXPECT_THROW(s.add(2, 2, 1.0), std::out_of_range);
  EXPECT_EQ(s.stats().sequence_divergences, 0u);
}

TEST(SparseSolver, SingularMatrixDiagnosticsMatchDense) {
  // Structurally present but numerically empty column: the sparse backend
  // and the dense reference must throw SingularMatrixError with the same
  // diagnostic wording.
  const std::vector<Entry> singular{{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 0.0}, {1, 1, 0.0}};
  const auto expect_diagnostic = [](const SingularMatrixError& err) {
    EXPECT_NE(std::string(err.what()).find("below tolerance"), std::string::npos)
        << err.what();
    EXPECT_NE(std::string(err.what()).find("floating node"), std::string::npos)
        << err.what();
  };
  SparseSolver<double> s(2);
  assemble(s, singular);
  try {
    s.factor();
    FAIL() << "sparse backend accepted a singular matrix";
  } catch (const SingularMatrixError& err) {
    expect_diagnostic(err);
  }
  try {
    LuFactorization reference(dense_matrix(2, singular));
    FAIL() << "reference LU accepted a singular matrix";
  } catch (const SingularMatrixError& err) {
    expect_diagnostic(err);
  }
}

TEST(SparseSolver, NaNPoisonedAssemblyIsRejectedNotPropagated) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Entry> poisoned{{0, 0, nan}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}};
  SparseSolver<double> s(2);
  assemble(s, poisoned);
  EXPECT_THROW(s.factor(), SingularMatrixError);
  EXPECT_THROW(LuFactorization(dense_matrix(2, poisoned)), SingularMatrixError);
}

TEST(SparseSolver, NaNDefeatsTheFactorSkipAndTheRefactorPath) {
  // Factor a healthy matrix first so the cached symbolic structure is
  // armed, then poison one entry: the NaN must fail the refactor pivot
  // check and then the full factorization, never reach solve_in_place.
  SparseSolver<double> s(2);
  const std::vector<Entry> good{{0, 0, 3.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}};
  assemble(s, good);
  s.factor();
  EXPECT_EQ(s.stats().factorizations, 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  assemble(s, {{0, 0, nan}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  EXPECT_THROW(s.factor(), SingularMatrixError);
  EXPECT_EQ(s.stats().refactorizations, 0u);
}

TEST(SparseSolver, OverflowEntriesGrowThePatternOnce) {
  // DC-then-transient shape: the first assembly misses the capacitor
  // coupling entries, the second introduces them. The pattern must grow
  // exactly once and the grown system must still match the reference.
  const std::size_t n = 4;
  std::vector<Entry> dc;
  for (int i = 0; i < 4; ++i) dc.push_back({i, i, 2.0});
  SparseSolver<double> s(n);
  std::vector<double> rhs{1.0, 2.0, 3.0, 4.0};
  auto x = solve_with(s, dc, rhs);
  EXPECT_EQ(s.stats().pattern_builds, 1u);
  EXPECT_EQ(s.pattern_nnz(), 4u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x[i], rhs[i] / 2.0);

  std::vector<Entry> tran = dc;
  tran.push_back({0, 1, -0.5});
  tran.push_back({1, 0, -0.5});
  const auto xd = reference_solve(n, tran, rhs);
  const auto xs = solve_with(s, tran, rhs);
  EXPECT_EQ(s.stats().pattern_builds, 2u);
  EXPECT_EQ(s.pattern_nnz(), 6u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);

  // Third assembly with the same entries: the grown pattern is reused.
  (void)solve_with(s, tran, rhs);
  EXPECT_EQ(s.stats().pattern_builds, 2u);
  EXPECT_GE(s.stats().pattern_reuses, 1u);
}

TEST(SparseSolver, OmittedStampLeavesAStructuralZero) {
  // An entry stamped once stays in the pattern forever; an assembly that
  // skips it sees a numeric zero there, not a pattern rebuild.
  SparseSolver<double> s(2);
  assemble(s, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}, {1, 0, 1.0}});
  s.factor();
  EXPECT_EQ(s.pattern_nnz(), 4u);
  // Re-stamp without the trailing (1, 0) coupling.
  assemble(s, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 4.0}});
  s.factor();
  EXPECT_EQ(s.pattern_nnz(), 4u);
  EXPECT_EQ(s.stats().pattern_builds, 1u);
  std::vector<double> b{2.0, 4.0};
  s.solve_in_place(b);
  // [[2, 1], [0, 4]] x = [2, 4] -> x = [0.5, 1].
  EXPECT_NEAR(b[0], 0.5, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
}

TEST(SparseSolver, StampOrderReorderingIsCorrectnessNeutral) {
  // A MOSFET swapping source/drain roles reorders its add() calls. The
  // slot cache must keep the matched prefix, re-record, and produce the
  // same numbers as a cold solver.
  const std::size_t n = 6;
  const auto entries = random_system(n, 42);
  std::vector<double> rhs(n, 1.0);
  SparseSolver<double> warm(n);
  (void)solve_with(warm, entries, rhs);

  std::vector<Entry> reordered(entries.rbegin(), entries.rend());
  const auto x_warm = solve_with(warm, reordered, rhs);
  SparseSolver<double> cold(n);
  const auto x_cold = solve_with(cold, reordered, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x_warm[i], x_cold[i]);
  // Same entry set: the pattern survived the reorder untouched.
  EXPECT_EQ(warm.stats().pattern_builds, 1u);
  EXPECT_EQ(warm.pattern_nnz(), cold.pattern_nnz());
  // One divergence, then the re-recorded order replays cleanly.
  EXPECT_EQ(warm.stats().sequence_divergences, 1u);
  (void)solve_with(warm, reordered, rhs);
  EXPECT_EQ(warm.stats().sequence_divergences, 1u);
  EXPECT_EQ(cold.stats().sequence_divergences, 0u);
}

TEST(SparseSolver, FactorLadderSkipsRefactorsAndRepivots) {
  const std::vector<Entry> a1{{0, 0, 10.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 5.0}};
  SparseSolver<double> s(2);
  assemble(s, a1);
  s.factor();
  EXPECT_EQ(s.stats().factorizations, 1u);
  EXPECT_EQ(s.stats().refactorizations, 0u);

  // Same values again: a numeric-only refactorization, like any other
  // assembly on the cached pattern.
  assemble(s, a1);
  s.factor();
  EXPECT_EQ(s.stats().factorizations, 2u);
  EXPECT_EQ(s.stats().refactorizations, 1u);

  // New values on the same pattern: numeric-only refactorization.
  assemble(s, {{0, 0, 8.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}});
  s.factor();
  EXPECT_EQ(s.stats().factorizations, 3u);
  EXPECT_EQ(s.stats().refactorizations, 2u);

  // Degrade the cached pivot (column 0 now dominated by the off-diagonal):
  // the refactor check must reject it and fall back to a full, re-pivoted
  // factorization that still solves correctly.
  const std::vector<Entry> flipped{
      {0, 0, 1e-9}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1e-9}};
  const std::vector<double> rhs{1.0, 2.0};
  const auto xd = reference_solve(2, flipped, rhs);
  const auto xs = solve_with(s, flipped, rhs);
  EXPECT_EQ(s.stats().factorizations, 4u);
  EXPECT_EQ(s.stats().refactorizations, 2u);  // unchanged: fallback path
  for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseSolver, SingularityIsDetectedOnTheRefactorPathToo) {
  SparseSolver<double> s(2);
  assemble(s, {{0, 0, 3.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  s.factor();
  // Numerically singular values on the cached structure: the refactor
  // rejects the pivot, the full fallback throws.
  assemble(s, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(s.factor(), SingularMatrixError);
}

TEST(SparseSolver, ThrowingFactorizationLeavesNoFactorsToSkipTo) {
  // A factorization that throws has already overwritten the cached
  // factors in place. A solve before the next successful factor() must
  // refuse to run, and re-assembling the last good matrix factors it
  // again.
  const std::vector<Entry> good{{0, 0, 3.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}};
  const std::vector<double> rhs{1.0, 2.0};
  SparseSolver<double> s(2);
  solve_with(s, good, rhs);
  assemble(s, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(s.factor(), SingularMatrixError);
  std::vector<double> unsolved = rhs;
  EXPECT_THROW(s.solve_in_place(unsolved), std::logic_error);

  const auto x = solve_with(s, good, rhs);
  EXPECT_EQ(s.stats().factorizations, 2u);
  const auto xd = reference_solve(2, good, rhs);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(x[i], xd[i], 1e-12);
}

TEST(SparseSolver, FactorRungsArePinnedBitForBit) {
  // The tests above check the solver to a tolerance; this one pins the
  // exact bits each rung of the factor ladder leaves in the solution, so
  // a rewrite of the factor or solve loops that reorders a single
  // floating-point operation fails here, not only in the end-to-end
  // fingerprints.
  const auto bits = [](const std::vector<double>& x) {
    Fingerprint fp;
    for (const double v : x) fp.feed(v);
    return fp.value();
  };
  constexpr std::size_t n = 13;
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = std::sin(1.0 + double(i));
  struct Pin {
    unsigned seed;
    std::uint64_t cold, refactor, repivot, reversed;
  };
  const Pin pins[] = {
      {1, 0xb87d10db7076154f, 0x4e53b960654744ea, 0x4c2864665c3f7af5, 0xfe4f4965f450b44e},
      {2, 0x571885a6d4ea9232, 0x6cfb0b5f7e6e8970, 0x76b5e21c9831bfac, 0x19edd83bc6d9a2e2},
      {3, 0x192a467f8f61772e, 0x91636d35285a5f2e, 0xfd2e16d87fc5d7d0, 0xc5c9062c1053fbfa},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.seed);
    const auto entries = random_system(n, pin.seed);
    SparseSolver<double> s(n);
    // Cold: pattern build and a full, pivot-choosing factorization.
    EXPECT_EQ(bits(solve_with(s, entries, rhs)), pin.cold);
    EXPECT_EQ(s.stats().refactorizations, 0u);

    // New values on the same pattern, same call order: the numeric
    // refactorization along the cached structure.
    auto perturbed = entries;
    for (std::size_t i = 0; i < perturbed.size(); ++i) {
      perturbed[i].value *= 1.0 + 0.25 * std::cos(double(i));
    }
    EXPECT_EQ(bits(solve_with(s, perturbed, rhs)), pin.refactor);
    EXPECT_EQ(s.stats().refactorizations, 1u);

    // The same values again: a second refactorization reproduces the
    // first one's bits.
    EXPECT_EQ(bits(solve_with(s, perturbed, rhs)), pin.refactor);
    EXPECT_EQ(s.stats().refactorizations, 2u);
    EXPECT_EQ(s.stats().factorizations, 3u);

    // Shrink every dominant diagonal entry: the cached pivots lose the
    // slack test and the solver re-pivots with a full factorization.
    auto degraded = entries;
    for (std::size_t i = 0; i < degraded.size(); i += 7) degraded[i].value *= 1e-6;
    EXPECT_EQ(bits(solve_with(s, degraded, rhs)), pin.repivot);
    EXPECT_EQ(s.stats().factorizations, 4u);
    EXPECT_EQ(s.stats().refactorizations, 2u);

    // The original stamps in reverse call order: the slot cache diverges
    // at the first call and re-records, and duplicate entries sum in the
    // reverse order.
    const std::vector<Entry> reversed(entries.rbegin(), entries.rend());
    EXPECT_EQ(bits(solve_with(s, reversed, rhs)), pin.reversed);
    EXPECT_EQ(s.stats().pattern_builds, 1u);
  }

  // Complex values: a cold factorization, then a refactorization.
  {
    SparseSolver<Complex> s(n);
    std::vector<Complex> x;
    Fingerprint fp;
    for (const double scale : {1.0, 0.75}) {
      std::mt19937 rng(3);
      std::uniform_real_distribution<double> v(-1.0, 1.0);
      s.begin_assembly();
      for (int i = 0; i < static_cast<int>(n); ++i) {
        s.add(i, i, Complex{5.0 + v(rng), v(rng)} * scale);
        s.add(i, (i + 3) % static_cast<int>(n), Complex{v(rng), v(rng)});
        s.add((i + 5) % static_cast<int>(n), i, Complex{v(rng), v(rng)} * scale);
      }
      s.factor();
      x.assign(n, Complex{});
      for (std::size_t i = 0; i < n; ++i) x[i] = Complex{1.0, double(i)};
      s.solve_in_place(x);
      for (const auto& v : x) {
        fp.feed(v.real());
        fp.feed(v.imag());
      }
    }
    EXPECT_EQ(s.stats().refactorizations, 1u);
    EXPECT_EQ(fp.value(), 0x56f68b65195e4510u);
  }

  // The counts a throwing factorization leaves behind (the fixture of
  // ThrowingFactorizationLeavesNoFactorsToSkipTo): the failing column's
  // updates count as flops, its entries not as factor nonzeros.
  {
    SparseSolver<double> s(2);
    solve_with(s, {{0, 0, 3.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}}, {1.0, 2.0});
    assemble(s, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
    EXPECT_THROW(s.factor(), SingularMatrixError);
    EXPECT_EQ(s.factor_flops(), 3.0);
    EXPECT_EQ(s.stats().factor_nnz, 3u);
  }
}

TEST(SparseSolver, BandedSystemFillStaysLinear) {
  // 200-unknown tridiagonal ladder: the factorization must stay O(n) in
  // stored entries (the point of the sparse backend) and match the dense
  // reference.
  const std::size_t n = 200;
  std::vector<Entry> entries;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    entries.push_back({i, i, 4.0});
    if (i > 0) {
      entries.push_back({i, i - 1, -1.0});
      entries.push_back({i - 1, i, -1.0});
    }
  }
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = std::cos(double(i));
  const auto xd = reference_solve(n, entries, rhs);
  SparseSolver<double> s(n);
  const auto xs = solve_with(s, entries, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);
  EXPECT_LT(s.stats().factor_nnz, 10 * n) << "tridiagonal factor filled in";
}

TEST(SparseSolver, ComplexBackendMatchesComplexDense) {
  const std::size_t n = 12;
  SparseSolver<Complex> sparse(n);
  sparse.begin_assembly();
  CMatrix dense(n, n);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> v(-1.0, 1.0);
  const auto add = [&](int r, int c, Complex value) {
    sparse.add(r, c, value);
    dense(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += value;
  };
  for (int i = 0; i < static_cast<int>(n); ++i) {
    add(i, i, {5.0 + v(rng), v(rng)});
    add(i, (i + 3) % static_cast<int>(n), {v(rng), v(rng)});
    add((i + 5) % static_cast<int>(n), i, {v(rng), v(rng)});
  }
  sparse.factor();
  std::vector<Complex> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = Complex{1.0, double(i)};
  const CVector bd = solve_complex(dense, b);
  sparse.solve_in_place(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[i].real(), bd[i].real(), 1e-9);
    EXPECT_NEAR(b[i].imag(), bd[i].imag(), 1e-9);
  }
}
