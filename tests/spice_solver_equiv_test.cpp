// The sparse backend on engine-shaped workloads (DESIGN.md §11): its
// caching ladder (pattern reuse, numeric-only refactorization,
// bit-identical factor skip) must actually engage on real transient and
// AC runs, and a checkpoint-resumed run must stay bit-exact.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/spice/ac.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/netlist_parser.hpp"
#include "src/spice/trace.hpp"

namespace {

using namespace ironic::spice;

const std::filesystem::path kSourceDir = IRONIC_SOURCE_DIR;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(SolverEquiv, TissueLadderAutoSelectsSparseAndCachesFactorizations) {
  // The 60-segment Fricke ladder is the largest shipped netlist. The
  // circuit is linear: one solve per step, and the matrix is factored
  // only when the step size changes, so numeric factorizations lag
  // triangular solves.
  Circuit ckt;
  parse_netlist(ckt, read_file(kSourceDir / "examples" / "netlists" /
                               "tissue_ladder.cir"));
  ckt.finalize();
  ASSERT_GE(ckt.num_unknowns(), 100u);

  TransientOptions opts;
  opts.t_stop = 5e-6;
  opts.dt_max = 5e-9;
  opts.record_every = 8;
  TransientStats stats;
  const auto result = run_transient(ckt, opts, &stats);
  EXPECT_GT(result.num_points(), 10u);
  EXPECT_EQ(stats.solves, stats.newton_iterations);
  EXPECT_EQ(stats.newton_iterations, stats.accepted_steps);
  EXPECT_GT(stats.factorizations, 0u);
  EXPECT_LT(stats.factorizations, stats.solves)
      << "linear circuit: an unchanged matrix must not be refactored";

  // The engine re-acquires the circuit-owned solver, so its lifetime
  // stats reflect the run: one pattern build, reuse ever after.
  const auto& st = ckt.acquire_solver().stats();
  EXPECT_EQ(st.pattern_builds, 1u);
  EXPECT_GT(st.pattern_reuses, 0u);
  EXPECT_LT(st.factor_nnz, ckt.num_unknowns() * ckt.num_unknowns() / 10)
      << "banded ladder must not fill in";
}

TEST(SolverEquiv, AcSweepAgreesAndRefactorizesAcrossFrequencies) {
  // 40-section RC ladder: the AC pattern is frequency-invariant, so
  // every frequency after the first must be a numeric-only
  // refactorization of the complex sparse backend. (spice_ac_test checks
  // the AC physics.)
  const auto build = [](Circuit& ckt) {
    NodeId prev = ckt.node("in");
    auto& vs = ckt.add<VoltageSource>("V1", prev, kGround, Waveform::dc(0.0));
    vs.set_ac(1.0);
    for (int i = 0; i < 40; ++i) {
      const std::string index = std::to_string(i);
      const NodeId next = ckt.node("n" + index);
      ckt.add<Resistor>("R" + index, prev, next, 220.0);
      ckt.add<Capacitor>("C" + index, next, kGround, 47e-12);
      prev = next;
    }
    ckt.add<Resistor>("RL", prev, kGround, 10e3);
  };

  AcOptions opts;
  opts.f_start = 1e4;
  opts.f_stop = 1e8;
  opts.points_per_decade = 5;
  opts.use_operating_point = false;

  Circuit ckt;
  build(ckt);
  const AcResult rs = run_ac(ckt, opts);
  ASSERT_GT(rs.num_points(), 1u);

  const auto& st = ckt.acquire_complex_solver().stats();
  EXPECT_EQ(st.pattern_builds, 1u);
  EXPECT_EQ(st.factorizations, rs.num_points());
  EXPECT_EQ(st.refactorizations, rs.num_points() - 1);
}

TEST(SolverEquiv, CheckpointResumeIsBitExactUnderTheSparseBackend) {
  // The checkpoint contract (DESIGN.md §10): a resumed run must
  // reproduce the uninterrupted run sample for sample, even though the
  // resumed solver starts with a cold cache.
  // Power-of-two step and split: t accumulates k * 2^-28 s exactly, so
  // the uninterrupted run passes through the split time bit-exactly at
  // the same accepted-step ordinal the capturing run stops at (no
  // rounding micro-step, no breakpoint/t_stop edge cases — the pulse's
  // first edge at 1 us lies beyond the split).
  const double kDt = std::ldexp(1.0, -28);    // ~3.73 ns
  const double kSplit = std::ldexp(1.0, -20); // ~0.954 us = 256 * kDt
  const double kStop = 4e-6;
  const auto build = [](Circuit& ckt) {
    parse_netlist(ckt, read_file(kSourceDir / "examples" / "netlists" /
                                 "tissue_ladder.cir"));
  };
  const auto options = [kDt](double t_stop) {
    TransientOptions o;
    o.t_stop = t_stop;
    o.dt_max = kDt;
    o.record_every = 3;  // decimation phase must survive the splice
    return o;
  };
  const auto tail_rows = [](const TransientResult& res, double after) {
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < res.num_points(); ++i) {
      const double t = res.time()[i];
      if (t <= after) continue;
      std::vector<double> row{t};
      for (const auto& name : res.names()) row.push_back(res.signal(name)[i]);
      rows.push_back(std::move(row));
    }
    return rows;
  };

  Circuit full_ckt;
  build(full_ckt);
  const auto full = run_transient(full_ckt, options(kStop));

  Circuit head_ckt;
  build(head_ckt);
  TransientCheckpoint cp;
  auto head = options(kSplit);
  head.checkpoint = &cp;
  (void)run_transient(head_ckt, head);
  ASSERT_TRUE(cp.valid());
  ASSERT_DOUBLE_EQ(cp.time, kSplit);

  Circuit tail_ckt;
  build(tail_ckt);
  auto tail = options(kStop);
  tail.resume_from = &cp;
  const auto resumed = run_transient(tail_ckt, tail);

  const auto want = tail_rows(full, cp.time);
  const auto got = tail_rows(resumed, 0.0);  // records only t > split
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(got[i][j], want[i][j])
          << "row " << i << " col " << j << " (t=" << want[i][0] << ")";
    }
  }
}
