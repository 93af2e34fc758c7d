// Static-analysis framework gates (DESIGN.md §13).
//
// The load-bearing contracts pinned here:
//   - the sparsity pass's counts match the SparseSolver stats() of a
//     real DC solve EXACTLY on every shipped example netlist, and the
//     whole sparsity report is pinned on every corpus netlist
//   - the dt recommendation never exceeds the smallest stimulus
//     breakpoint interval, over the shipped + broken corpus
//   - the static envelope always contains the actual DC operating
//     point wherever solve_dc converges
//   - run_transient validates once (the internal DC solve must not
//     re-lint).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/spice/analysis/analysis.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/netlist_parser.hpp"

namespace {

using namespace ironic;
using namespace ironic::spice;

const std::filesystem::path kSourceDir = IRONIC_SOURCE_DIR;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> netlists_in(const char* dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(kSourceDir / dir)) {
    if (entry.path().extension() == ".cir") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::filesystem::path> all_corpus() {
  auto files = netlists_in("examples/netlists");
  const auto broken = netlists_in("tests/netlists");
  files.insert(files.end(), broken.begin(), broken.end());
  return files;
}

}  // namespace

// The headline exactness gate: predicted factor nnz == the sparse
// backend's own count after a real DC solve, for every example.
TEST(Analysis, PredictedFillMatchesSparseRuntimeExactly) {
  for (const auto& path : netlists_in("examples/netlists")) {
    SCOPED_TRACE(path.filename().string());
    Circuit circuit;
    parse_netlist(circuit, read_file(path));
    const auto report = analysis::analyze(circuit);
    ASSERT_GT(report.sparsity.unknowns, 0u);
    EXPECT_FALSE(report.sparsity.prediction.singular);

    const auto dc = solve_dc(circuit);
    ASSERT_TRUE(dc.converged);
    const auto& stats = circuit.acquire_solver().stats();
    EXPECT_EQ(report.sparsity.prediction.factor_nnz, stats.factor_nnz);
    EXPECT_EQ(report.sparsity.prediction.pattern_nnz, stats.nnz);
  }
}

// Every corpus netlist that parses has its whole sparsity report pinned:
// unknowns, pattern and factor nnz, the flop counts of one factorization
// and one solve, and the singular flag. The voltage loop is the one
// singular row. A change to the stamp stream, the pattern merge, the
// column order or the pivot rule moves a number here.
TEST(Analysis, SparsityReportIsPinnedOnTheCorpus) {
  struct Pin {
    const char* netlist;
    std::size_t unknowns;
    std::size_t pattern_nnz;
    std::size_t factor_nnz;
    double factor_flops;
    double solve_flops;
    bool singular;
  };
  const std::vector<Pin> pins{
      {"ask_demodulator", 6, 14, 14, 4, 22, false},
      {"class_e_pa", 9, 20, 22, 16, 35, false},
      {"full_bridge_rectifier", 6, 17, 18, 19, 30, false},
      {"halfwave_rectifier", 3, 6, 6, 0, 9, false},
      {"inductive_link_lsk", 11, 25, 26, 16, 41, false},
      {"rc_lowpass", 3, 6, 6, 0, 9, false},
      {"tissue_ladder", 122, 363, 363, 358, 604, false},
      {"voltage_doubler", 4, 7, 7, 3, 10, false},
      {"broken_bad_magnitude", 3, 6, 6, 0, 9, false},
      {"broken_current_cutset", 3, 4, 4, 0, 5, false},
      {"broken_dangling_terminal", 4, 9, 9, 4, 14, false},
      {"broken_floating_node", 4, 7, 7, 3, 10, false},
      {"broken_voltage_loop", 3, 5, 3, 0, 3, true},
  };
  std::size_t parsed = 0;
  for (const auto& path : all_corpus()) {
    Circuit circuit;
    try {
      parse_netlist(circuit, read_file(path));
    } catch (const std::exception&) {
      continue;  // parse-error fixtures have no circuit to analyze
    }
    ++parsed;
    const std::string name = path.stem().string();
    SCOPED_TRACE(name);
    const auto pin = std::find_if(pins.begin(), pins.end(),
                                  [&](const Pin& p) { return name == p.netlist; });
    ASSERT_NE(pin, pins.end()) << "corpus netlist without a pinned report";
    const auto sparsity = analysis::analyze(circuit).sparsity;
    EXPECT_EQ(sparsity.unknowns, pin->unknowns);
    EXPECT_EQ(sparsity.prediction.pattern_nnz, pin->pattern_nnz);
    EXPECT_EQ(sparsity.prediction.factor_nnz, pin->factor_nnz);
    EXPECT_EQ(sparsity.prediction.factor_flops, pin->factor_flops);
    EXPECT_EQ(sparsity.prediction.solve_flops, pin->solve_flops);
    EXPECT_EQ(sparsity.prediction.singular, pin->singular);
  }
  EXPECT_EQ(parsed, pins.size());
}

// Property: the recommended step never exceeds the smallest breakpoint
// interval — a recommendation that steps over a stimulus edge is wrong
// no matter what the time constants say.
TEST(Analysis, DtRecommendationNeverExceedsBreakpointSpacing) {
  for (const auto& path : all_corpus()) {
    SCOPED_TRACE(path.filename().string());
    Circuit circuit;
    try {
      parse_netlist(circuit, read_file(path));
    } catch (const std::exception&) {
      continue;  // parse-error fixtures have no circuit to analyze
    }
    const auto report = analysis::analyze(circuit);
    if (report.timescale.dt_recommend > 0.0 &&
        report.timescale.t_breakpoint_min > 0.0) {
      EXPECT_LE(report.timescale.dt_recommend,
                report.timescale.t_breakpoint_min);
    }
  }
}

// Property: wherever a DC operating point exists, it lies inside the
// static envelope (the bound is conservative, never wrong).
TEST(Analysis, EnvelopeContainsDcOperatingPoint) {
  for (const auto& path : all_corpus()) {
    SCOPED_TRACE(path.filename().string());
    Circuit circuit;
    try {
      parse_netlist(circuit, read_file(path));
    } catch (const std::exception&) {
      continue;
    }
    const auto report = analysis::analyze(circuit);
    DcResult dc;
    try {
      dc = solve_dc(circuit);
    } catch (const std::exception&) {
      continue;  // validation-rejected fixtures have no operating point
    }
    if (!dc.converged) continue;
    ASSERT_EQ(report.envelope.nodes.size(), circuit.num_nodes());
    for (std::size_t i = 0; i < circuit.num_nodes(); ++i) {
      const auto& band = report.envelope.nodes[i];
      const double v = dc.x[i];
      const double slack = 1e-6 + 1e-9 * std::abs(v);
      EXPECT_GE(v, band.lo - slack) << "node " << band.node;
      EXPECT_LE(v, band.hi + slack) << "node " << band.node;
    }
  }
}

// Shipped examples are strict-clean through the whole pipeline: no lint
// findings and no analysis.* diagnostics (the CI analyze stage sweeps
// the same corpus through the CLI).
TEST(Analysis, ExampleNetlistsAreStrictClean) {
  for (const auto& path : netlists_in("examples/netlists")) {
    SCOPED_TRACE(path.filename().string());
    Circuit circuit;
    parse_netlist(circuit, read_file(path));
    const auto report = analysis::analyze(circuit);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.warnings(), 0u);
  }
}

// run_transient validates exactly once up front.
TEST(Analysis, TransientValidatesOnce) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";

  Circuit circuit;
  const auto in = circuit.node("in");
  const auto out = circuit.node("out");
  circuit.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  circuit.add<Resistor>("R1", in, out, 1e3);
  circuit.add<Capacitor>("C1", out, kGround, 1e-9);

  auto& runs = obs::MetricsRegistry::instance().counter("spice.lint.runs");
  const std::uint64_t before = runs.value();
  TransientOptions options;
  options.t_stop = 1e-6;
  run_transient(circuit, options);
  EXPECT_EQ(runs.value() - before, 1u);
}

TEST(Analysis, OvervoltageRiskFlaggedOnRatedJunction) {
  Circuit circuit;
  const auto in = circuit.node("in");
  circuit.add<VoltageSource>("V1", in, kGround, Waveform::sine(10.0, 1e3));
  DiodeParams params;
  params.breakdown_voltage = 5.0;  // rated well below the 10 V swing
  circuit.add<Diode>("D1", kGround, in, params);
  circuit.add<Resistor>("R1", in, kGround, 1e3);

  const auto report = analysis::analyze(circuit);
  bool flagged = false;
  for (const auto& d : report.diagnostics) {
    if (d.rule_id == "analysis.overvoltage-risk" && d.device == "D1") {
      flagged = true;
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(flagged) << report.to_text();

  // A rating above the worst-case reverse voltage stays quiet.
  Circuit quiet;
  const auto qin = quiet.node("in");
  quiet.add<VoltageSource>("V1", qin, kGround, Waveform::sine(10.0, 1e3));
  DiodeParams rated;
  rated.breakdown_voltage = 25.0;
  quiet.add<Diode>("D1", kGround, qin, rated);
  quiet.add<Resistor>("R1", qin, kGround, 1e3);
  const auto quiet_report = analysis::analyze(quiet);
  for (const auto& d : quiet_report.diagnostics) {
    EXPECT_NE(d.rule_id, "analysis.overvoltage-risk") << d.to_string();
  }
}

TEST(Analysis, StiffnessSpreadEarnsInfoDiagnostic) {
  Circuit circuit;
  const auto a = circuit.node("a");
  const auto b = circuit.node("b");
  circuit.add<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  circuit.add<Resistor>("R1", a, b, 1e3);
  circuit.add<Capacitor>("Cslow", b, kGround, 1e-3);   // tau ~ 1 s
  circuit.add<Capacitor>("Cfast", b, kGround, 1e-12);  // tau ~ 1 ns

  const auto report = analysis::analyze(circuit);
  ASSERT_GT(report.timescale.stiffness_ratio, 1e6);
  bool flagged = false;
  for (const auto& d : report.diagnostics) {
    if (d.rule_id == "analysis.stiff") {
      flagged = true;
      EXPECT_EQ(d.severity, Severity::kInfo);
    }
  }
  EXPECT_TRUE(flagged) << report.to_text();
}

// The timescale pass walks every stimulus corner in its window, so an
// unbounded window never ends: analyze rejects a horizon that is not
// finite and > 0 before any pass runs.
TEST(Analysis, HorizonMustBeFiniteAndPositive) {
  Circuit circuit;
  const auto a = circuit.node("a");
  circuit.add<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  circuit.add<Resistor>("R1", a, kGround, 1e3);
  analysis::AnalysisOptions options;
  for (const double horizon :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0,
        std::numeric_limits<double>::infinity()}) {
    options.transient_horizon = horizon;
    EXPECT_THROW(analysis::analyze(circuit, options), std::invalid_argument)
        << "horizon " << horizon;
  }
  options.transient_horizon = 1e-3;
  EXPECT_NO_THROW(analysis::analyze(circuit, options));
}

// The JSON report carries the schema the CI analyze stage greps.
TEST(Analysis, JsonReportCarriesSchema) {
  Circuit circuit;
  parse_netlist(circuit, read_file(kSourceDir / "examples" / "netlists" /
                                   "tissue_ladder.cir"));
  const auto report = analysis::analyze(circuit);
  const std::string json = report.to_json();
  for (const char* key :
       {"\"unknowns\"", "\"envelope\"", "\"sparsity\"", "\"factor_nnz\"",
        "\"timescale\"", "\"dt_recommend\"", "\"lint\"",
        "\"diagnostics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"unknowns\": 122"), std::string::npos);
}
