// Tests for the netlist linter (src/spice/lint.hpp): one unit test per
// rule, engine-integration tests proving validate() turns formerly
// diverging circuits into pre-run diagnostics, pins that a re-validated
// circuit reports exactly what a fresh lint() of its values does, and
// an integration sweep asserting every shipped example netlist lints
// clean while every broken fixture trips its advertised rule.
#include "src/spice/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <tuple>

#include "src/fault/bioz.hpp"
#include "src/fault/plant.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/netlist_parser.hpp"
#include "src/spice/waveform.hpp"

namespace {

using namespace ironic::spice;

bool has_rule(const LintReport& report, const std::string& rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule; });
}

const Diagnostic& get_rule(const LintReport& report, const std::string& rule) {
  for (const auto& d : report.diagnostics) {
    if (d.rule_id == rule) return d;
  }
  throw std::logic_error("rule not present: " + rule);
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ rule units

TEST(LintRules, CleanCircuitHasNoDiagnostics) {
  Circuit ckt;
  auto in = ckt.node("in");
  auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-9);
  ckt.add<Resistor>("R2", out, kGround, 2e3);
  const auto report = lint(ckt);
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_text(), "");
}

TEST(LintRules, FloatingNodeIsReported) {
  Circuit ckt;
  auto in = ckt.node("in");
  auto n1 = ckt.node("n1");
  auto n2 = ckt.node("n2");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("Rload", in, kGround, 1e3);
  ckt.add<Capacitor>("C1", in, n1, 1e-9);  // island: n1 -- R -- n2, cap-coupled
  ckt.add<Resistor>("R1", n1, n2, 1e4);
  ckt.add<Capacitor>("C2", n2, kGround, 1e-9);
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.no-dc-path")) << report.to_text();
  const auto& d = get_rule(report, "lint.no-dc-path");
  EXPECT_EQ(d.severity, Severity::kWarning);
  // Both island nodes are named in one component diagnostic.
  EXPECT_NE(d.message.find("'n1'"), std::string::npos);
  EXPECT_NE(d.message.find("'n2'"), std::string::npos);
}

TEST(LintRules, VoltageLoopIsError) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(5.0));
  ckt.add<VoltageSource>("V2", in, kGround, Waveform::dc(3.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.voltage-loop")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.voltage-loop").severity, Severity::kError);
  EXPECT_EQ(get_rule(report, "lint.voltage-loop").device, "V2");
  EXPECT_FALSE(report.ok());
}

TEST(LintRules, VcvsAcrossVoltageSourceIsLoop) {
  Circuit ckt;
  auto in = ckt.node("in");
  auto s = ckt.node("sense");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, s, 1e3);
  ckt.add<Resistor>("R2", s, kGround, 1e3);
  ckt.add<Vcvs>("E1", in, kGround, s, kGround, 2.0);  // fights V1
  const auto report = lint(ckt);
  EXPECT_TRUE(has_rule(report, "lint.voltage-loop")) << report.to_text();
}

TEST(LintRules, InductorLoopSeverityDependsOnContext) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<Inductor>("L1", in, kGround, 1e-6);  // ideal winding across V1
  LintOptions transient;
  const auto tr = lint(ckt, transient);
  ASSERT_TRUE(has_rule(tr, "lint.inductor-loop")) << tr.to_text();
  EXPECT_EQ(get_rule(tr, "lint.inductor-loop").severity, Severity::kWarning);
  EXPECT_TRUE(tr.ok());

  LintOptions dc;
  dc.dc_context = true;
  const auto at_dc = lint(ckt, dc);
  ASSERT_TRUE(has_rule(at_dc, "lint.inductor-loop"));
  EXPECT_EQ(get_rule(at_dc, "lint.inductor-loop").severity, Severity::kError);
  EXPECT_FALSE(at_dc.ok());
}

TEST(LintRules, InductorWithEsrIsNotRigid) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<Inductor>("L1", in, kGround, 1e-6, /*esr=*/0.5);
  LintOptions dc;
  dc.dc_context = true;
  EXPECT_FALSE(has_rule(lint(ckt, dc), "lint.inductor-loop"));
}

TEST(LintRules, CurrentCutsetErrorAtDcWarningInTransient) {
  Circuit ckt;
  auto n1 = ckt.node("n1");
  auto in = ckt.node("in");
  ckt.add<CurrentSource>("I1", kGround, n1, Waveform::dc(1e-3));
  ckt.add<Capacitor>("C1", n1, kGround, 1e-9);
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);

  const auto tr = lint(ckt);
  ASSERT_TRUE(has_rule(tr, "lint.current-cutset")) << tr.to_text();
  EXPECT_EQ(get_rule(tr, "lint.current-cutset").severity, Severity::kWarning);

  LintOptions dc;
  dc.dc_context = true;
  const auto at_dc = lint(ckt, dc);
  EXPECT_EQ(get_rule(at_dc, "lint.current-cutset").severity, Severity::kError);
  EXPECT_EQ(get_rule(at_dc, "lint.current-cutset").device, "I1");
}

TEST(LintRules, DanglingTerminalAndNode) {
  Circuit ckt;
  auto in = ckt.node("in");
  auto out = ckt.node("out");
  auto probe = ckt.node("probe");
  ckt.node("orphan");  // registered, never used
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Resistor>("R2", out, kGround, 1e3);
  ckt.add<Resistor>("R3", out, probe, 1e3);  // dead end
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.dangling-terminal")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.dangling-terminal").device, "R3");
  EXPECT_EQ(get_rule(report, "lint.dangling-terminal").node, "probe");
  ASSERT_TRUE(has_rule(report, "lint.dangling-node"));
  EXPECT_EQ(get_rule(report, "lint.dangling-node").node, "orphan");
}

TEST(LintRules, ShortedDeviceWarning) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  ckt.add<Resistor>("Rshort", in, in, 1e3);
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.shorted-device")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.shorted-device").device, "Rshort");
}

TEST(LintRules, SelfShortedVoltageSourceIsLoopError) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  ckt.add<VoltageSource>("Vshort", in, in, Waveform::dc(1.0));
  const auto report = lint(ckt);
  EXPECT_TRUE(has_rule(report, "lint.voltage-loop")) << report.to_text();
  EXPECT_FALSE(report.ok());
}

TEST(LintRules, DuplicateNameCaseInsensitive) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  ckt.add<Resistor>("r1", in, kGround, 1e3);
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.duplicate-name")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.duplicate-name").severity, Severity::kWarning);
}

TEST(LintRules, MagnitudeHeuristicFlagsUnitSlip) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(2.5, 13.56e6));
  ckt.add<Resistor>("Rload", in, kGround, 150e6);  // meant 150 Ohm
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.magnitude")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.magnitude").device, "Rload");

  LintOptions off;
  off.magnitude_checks = false;
  EXPECT_FALSE(has_rule(lint(ckt, off), "lint.magnitude"));
}

TEST(LintRules, ParamRangeFromDeviceCheck) {
  Circuit ckt;
  auto in = ckt.node("in");
  DiodeParams dp;
  dp.saturation_current = 1e-12;
  dp.emission_coeff = 50.0;  // implausible
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Diode>("D1", in, kGround, dp);
  const auto report = lint(ckt);
  ASSERT_TRUE(has_rule(report, "lint.param-range")) << report.to_text();
  EXPECT_EQ(get_rule(report, "lint.param-range").device, "D1");
}

TEST(LintRules, GroundMissingWarning) {
  Circuit ckt;
  auto a = ckt.node("a");
  auto b = ckt.node("b");
  ckt.add<VoltageSource>("V1", a, b, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", a, b, 1e3);
  const auto report = lint(ckt);
  EXPECT_TRUE(has_rule(report, "lint.ground-missing")) << report.to_text();
  // The single circuit-wide diagnostic replaces per-node no-dc-path spam.
  EXPECT_FALSE(has_rule(report, "lint.no-dc-path"));
}

TEST(LintRules, TransformerIsolatedSecondaryFloats) {
  Circuit ckt;
  auto p = ckt.node("p");
  auto s1 = ckt.node("s1");
  auto s2 = ckt.node("s2");
  ckt.add<VoltageSource>("V1", p, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<CoupledInductors>("K1", p, kGround, s1, s2, 1e-6, 1e-6, 0.3, 0.1, 0.1);
  ckt.add<Resistor>("Rload", s1, s2, 100.0);
  const auto report = lint(ckt);
  // The windings are galvanically isolated: the secondary floats even
  // though the device itself touches ground on the primary side.
  EXPECT_TRUE(has_rule(report, "lint.no-dc-path")) << report.to_text();
}

TEST(LintRules, JsonReportRoundTrips) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(5.0));
  ckt.add<VoltageSource>("V2", in, kGround, Waveform::dc(3.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  const auto report = lint(ckt);
  const auto value = ironic::obs::json::Value::parse(report.to_json());
  EXPECT_EQ(static_cast<std::size_t>(value.at("errors").as_double()), report.errors());
  ASSERT_GT(value.at("diagnostics").size(), 0u);
  const auto& first = value.at("diagnostics").at(0);
  EXPECT_FALSE(first.at("rule").as_string().empty());
  EXPECT_FALSE(first.at("message").as_string().empty());
}

// ------------------------------------------------- engine integration

TEST(EngineValidate, VoltageLoopBecomesPreRunDiagnostic) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(5.0));
  ckt.add<VoltageSource>("V2", in, kGround, Waveform::dc(3.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);

  // Previously: solve_dc ground through the whole Newton/gmin/source
  // ladder and reported converged=false; run_transient halved dt to
  // underflow and threw a generic runtime_error. Now both fail fast with
  // the named rule before any matrix is assembled.
  try {
    solve_dc(ckt);
    FAIL() << "expected CircuitValidationError";
  } catch (const CircuitValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("lint.voltage-loop"), std::string::npos);
    EXPECT_FALSE(e.report.ok());
  }

  TransientOptions tr;
  tr.t_stop = 1e-6;
  tr.dt_max = 1e-8;
  EXPECT_THROW(run_transient(ckt, tr), CircuitValidationError);
}

TEST(EngineValidate, DcCurrentCutsetCaughtBeforeDivergence) {
  Circuit ckt;
  auto n1 = ckt.node("n1");
  ckt.add<CurrentSource>("I1", kGround, n1, Waveform::dc(1e-3));
  ckt.add<Capacitor>("C1", n1, kGround, 1e-9);

  // Unvalidated, this would "converge": the circuit is linear, so one
  // solve lands on the exact operating point of the regularized system,
  // the meaningless v(n1) = I/gshunt (1e9 V) -- a silently useless
  // answer. It is a pre-run diagnostic instead.
  EXPECT_THROW(solve_dc(ckt), CircuitValidationError);
}

TEST(EngineValidate, WarningsDoNotBlockSimulation) {
  Circuit ckt;
  auto in = ckt.node("in");
  auto mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  // Cap-coupled island: a warning, and a circuit the engine handles.
  ckt.add<Capacitor>("C1", in, mid, 1e-9);
  ckt.add<Capacitor>("C2", mid, kGround, 1e-9);
  EXPECT_FALSE(lint(ckt).clean());
  TransientOptions tr;
  tr.t_stop = 2e-6;
  tr.dt_max = 1e-8;
  const auto result = run_transient(ckt, tr);
  EXPECT_GT(result.num_points(), 10u);
}

// ------------------------------------------------- fixture integration

const std::filesystem::path kSourceDir = IRONIC_SOURCE_DIR;

// ------------------------------------------- re-validated circuits

// The report validate() returns, or the one its CircuitValidationError
// carries.
LintReport validate_report(const Circuit& ckt, bool dc_context) {
  LintOptions opts;
  opts.dc_context = dc_context;
  try {
    return validate(ckt, opts);
  } catch (const CircuitValidationError& e) {
    return e.report;
  }
}

LintReport lint_in(const Circuit& ckt, bool dc_context) {
  LintOptions opts;
  opts.dc_context = dc_context;
  return lint(ckt, opts);
}

void expect_same_report(const LintReport& got, const LintReport& want,
                        const std::string& what) {
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size())
      << what << "\ngot:\n" << got.to_text() << "want:\n" << want.to_text();
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    const Diagnostic& g = got.diagnostics[i];
    const Diagnostic& w = want.diagnostics[i];
    EXPECT_EQ(g.severity, w.severity) << what << " #" << i;
    EXPECT_EQ(g.rule_id, w.rule_id) << what << " #" << i;
    EXPECT_EQ(g.device, w.device) << what << " #" << i;
    EXPECT_EQ(g.node, w.node) << what << " #" << i;
    EXPECT_EQ(g.message, w.message) << what << " #" << i;
  }
}

// What one lint run adds to the spice.lint.* series.
struct LintCounts {
  std::uint64_t runs, errors, warnings;
  double last_errors, last_warnings;

  static LintCounts read() {
    auto& r = ironic::obs::MetricsRegistry::instance();
    return {r.counter("spice.lint.runs").value(),
            r.counter("spice.lint.errors_total").value(),
            r.counter("spice.lint.warnings_total").value(),
            r.gauge("spice.lint.last_errors").value(),
            r.gauge("spice.lint.last_warnings").value()};
  }
  // This run's increments, next to the gauges it left.
  LintCounts since(const LintCounts& before) const {
    return {runs - before.runs, errors - before.errors, warnings - before.warnings,
            last_errors, last_warnings};
  }
  auto tie() const { return std::tie(runs, errors, warnings, last_errors, last_warnings); }
};

// Sets every value a setter reaches, the same way on any circuit: round
// 0 leaves the built values, round 1 moves every resistance above the
// magnitude band (so lint.magnitude fires), every source to a new
// waveform and AC phasor and every coupling below 1e-6 (so
// lint.param-range fires), round 2 brings them back into range.
void revalue(Circuit& ckt, int round) {
  if (round == 0) return;
  const bool out_of_band = round == 1;
  for (const auto& dev : ckt.devices()) {
    if (auto* r = dynamic_cast<Resistor*>(dev.get())) {
      r->set_resistance(out_of_band ? 2.5e9 : 75.0);
    } else if (auto* v = dynamic_cast<VoltageSource*>(dev.get())) {
      v->set_waveform(out_of_band ? Waveform::dc(0.5) : Waveform::sine(2.0, 1e5));
      v->set_ac(out_of_band ? 1.0 : 0.0, 0.3);
    } else if (auto* i = dynamic_cast<CurrentSource*>(dev.get())) {
      i->set_waveform(out_of_band ? Waveform::dc(1e-4) : Waveform::sine(1e-3, 1e5));
      i->set_ac(out_of_band ? 1e-3 : 0.0, 0.3);
    } else if (auto* k = dynamic_cast<CoupledInductors*>(dev.get())) {
      k->set_coupling(out_of_band ? 1e-7 : 0.3);
    }
  }
}

TEST(Lint, RevaluedCircuitReportMatchesFreshCircuit) {
  std::vector<std::pair<std::string, std::function<std::unique_ptr<Circuit>()>>> builders;
  builders.emplace_back("tissue ladder",
                        [] { return ironic::fault::build_tissue_ladder(2.4, 1.0); });
  builders.emplace_back("rectifier plant",
                        [] { return ironic::fault::RectifierPlant::build(3.5); });
  for (const auto& entry :
       std::filesystem::directory_iterator(kSourceDir / "examples" / "netlists")) {
    if (entry.path().extension() != ".cir") continue;
    builders.emplace_back(entry.path().filename().string(), [path = entry.path()] {
      auto ckt = std::make_unique<Circuit>();
      parse_netlist(*ckt, read_file(path));
      return ckt;
    });
  }
  ASSERT_GE(builders.size(), 8u);

  bool magnitude_seen = false;
  for (const auto& [name, build] : builders) {
    const auto kept = build();
    for (const int round : {0, 1, 2}) {
      revalue(*kept, round);
      const auto fresh = build();
      revalue(*fresh, round);
      // Each context twice: the second call of a pair is served by the
      // first one's topology findings.
      for (const bool dc : {false, true, false, true}) {
        const std::string what =
            name + " round " + std::to_string(round) + (dc ? " dc" : " transient");
        const LintCounts before = LintCounts::read();
        const LintReport got = validate_report(*kept, dc);
        const LintCounts got_counts = LintCounts::read().since(before);
        const LintCounts fresh_before = LintCounts::read();
        const LintReport want = lint_in(*fresh, dc);
        const LintCounts want_counts = LintCounts::read().since(fresh_before);
        expect_same_report(got, want, what);
        if constexpr (ironic::obs::kEnabled) {
          EXPECT_EQ(got_counts.tie(), want_counts.tie()) << what;
          EXPECT_EQ(got_counts.runs, 1u) << what;
        }
        magnitude_seen = magnitude_seen || has_rule(got, "lint.magnitude");
      }
    }
  }
  EXPECT_TRUE(magnitude_seen);
}

TEST(Lint, TopologyChangeAfterLintIsSeen) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  for (const bool dc : {false, true}) {
    EXPECT_TRUE(validate_report(ckt, dc).clean());
  }

  const NodeId spare = ckt.node("spare");
  for (const bool dc : {false, true}) {
    const LintReport report = validate_report(ckt, dc);
    ASSERT_TRUE(has_rule(report, "lint.dangling-node")) << report.to_text();
    EXPECT_EQ(get_rule(report, "lint.dangling-node").node, "spare");
    expect_same_report(report, lint_in(ckt, dc), "after a node");
  }

  ckt.add<Resistor>("R2", in, spare, 1e3);
  for (const bool dc : {false, true}) {
    const LintReport report = validate_report(ckt, dc);
    EXPECT_FALSE(has_rule(report, "lint.dangling-node")) << report.to_text();
    ASSERT_TRUE(has_rule(report, "lint.dangling-terminal")) << report.to_text();
    EXPECT_EQ(get_rule(report, "lint.dangling-terminal").device, "R2");
    EXPECT_EQ(get_rule(report, "lint.dangling-terminal").node, "spare");
    expect_same_report(report, lint_in(ckt, dc), "after a device");
  }
}

// A resistor whose model turns invalid once it has run: check_params
// passes until the first transient initializes it, and fails after.
class WearingResistor final : public Device {
 public:
  WearingResistor(std::string name, NodeId a, NodeId b)
      : Device(std::move(name)), a_(a), b_(b) {}
  void stamp(StampContext& ctx) override { stamp_conductance(ctx, a_, b_, 1e-3); }
  void initialize(std::span<const double> /*x0*/) override { ++runs_; }
  DeviceInfo info() const override {
    DeviceInfo d;
    d.kind = DeviceKind::kResistor;
    d.terminals = {{"+", a_, TerminalDc::kConducting}, {"-", b_, TerminalDc::kConducting}};
    d.value = 1e3;
    d.has_value = true;
    return d;
  }
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& /*warnings*/) const override {
    if (runs_ > 0) errors.push_back("worn out by its first run");
  }

 private:
  NodeId a_, b_;
  int runs_ = 0;
};

TEST(Lint, ValueErrorOnRerunThrows) {
  Circuit ckt;
  auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<WearingResistor>("R1", in, kGround);
  TransientOptions tr;
  tr.t_stop = 1e-6;
  tr.dt_max = 1e-7;
  EXPECT_NO_THROW(run_transient(ckt, tr));
  try {
    run_transient(ckt, tr);
    FAIL() << "expected CircuitValidationError on the second run";
  } catch (const CircuitValidationError& e) {
    ASSERT_TRUE(has_rule(e.report, "lint.bad-value")) << e.report.to_text();
    EXPECT_EQ(get_rule(e.report, "lint.bad-value").device, "R1");
  }
  EXPECT_THROW(solve_dc(ckt), CircuitValidationError);
}

// The fields Device::info() promises are fixed at construction.
using TopologyFields =
    std::tuple<DeviceKind, std::vector<std::tuple<std::string, NodeId, TerminalDc>>,
               std::vector<std::vector<std::size_t>>,
               std::vector<std::pair<std::size_t, std::size_t>>, std::vector<std::size_t>>;

std::vector<TopologyFields> topology_of(const Circuit& ckt) {
  std::vector<TopologyFields> out;
  for (const auto& dev : ckt.devices()) {
    const DeviceInfo info = dev->info();
    std::vector<std::tuple<std::string, NodeId, TerminalDc>> terminals;
    for (const auto& t : info.terminals) terminals.emplace_back(t.label, t.node, t.dc);
    out.emplace_back(info.kind, std::move(terminals), info.dc_groups, info.rigid_pairs,
                     info.rigid_to_ground);
  }
  return out;
}

TEST(Device, SettersLeaveTopologyInfoUnchanged) {
  // One device of every shipped kind, the ESR-free windings included
  // (their rigid pairs depend on a value no setter reaches).
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto s1 = ckt.node("s1");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e5));
  ckt.add<Resistor>("R1", in, a, 1e3);
  ckt.add<Capacitor>("C1", a, kGround, 1e-9);
  ckt.add<Inductor>("L1", a, b, 1e-6);
  ckt.add<Inductor>("L2", b, kGround, 1e-6, 0.5);
  ckt.add<CoupledInductors>("K1", a, kGround, s1, kGround, 1e-6, 1e-6, 0.3);
  ckt.add<CoupledInductors>("K2", b, kGround, s1, kGround, 1e-6, 1e-6, 0.2, 0.1, 0.1);
  ckt.add<CurrentSource>("I1", kGround, s1, Waveform::dc(1e-6));
  ckt.add<Vcvs>("E1", out, kGround, a, kGround, 0.5);
  ckt.add<Vccs>("G1", b, kGround, a, kGround, 1e-4);
  ckt.add<Diode>("D1", a, b);
  MosParams mos;
  ckt.add<Mosfet>("M1", b, a, kGround, kGround, mos);
  ckt.add<SmoothSwitch>("S1", s1, kGround, a, kGround);
  ckt.add<OpAmp>("U1", ckt.node("u"), a, b);
  ckt.add<Resistor>("RU", ckt.node("u"), kGround, 1e4);
  ckt.add<Resistor>("RO", out, kGround, 1e4);
  const auto built = topology_of(ckt);
  ASSERT_EQ(built.size(), ckt.devices().size());

  for (const auto& dev : ckt.devices()) {
    if (auto* r = dynamic_cast<Resistor*>(dev.get())) r->set_resistance(3.3e3);
    if (auto* k = dynamic_cast<CoupledInductors*>(dev.get())) k->set_coupling(0.05);
    if (auto* v = dynamic_cast<VoltageSource*>(dev.get())) {
      v->set_waveform(Waveform::dc(0.2));
      v->set_ac(1.0, 0.5);
    }
    if (auto* i = dynamic_cast<CurrentSource*>(dev.get())) {
      i->set_waveform(Waveform::sine(1e-6, 1e4));
      i->set_ac(1e-6, 0.5);
    }
    EXPECT_EQ(topology_of(ckt), built) << "after the setters of " << dev->name();
  }
  // Running the circuit moves every device's state, none of its topology.
  TransientOptions tr;
  tr.t_stop = 2e-7;
  tr.dt_max = 2e-8;
  ASSERT_GT(run_transient(ckt, tr).num_points(), 2u);
  EXPECT_EQ(topology_of(ckt), built);
}

TEST(LintFixtures, ShippedExampleNetlistsLintClean) {
  const auto dir = kSourceDir / "examples" / "netlists";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cir") continue;
    ++count;
    Circuit ckt;
    ASSERT_NO_THROW(parse_netlist(ckt, read_file(entry.path()))) << entry.path();
    const auto report = lint(ckt);
    EXPECT_TRUE(report.clean())
        << entry.path() << " is not strict-clean:\n" << report.to_text();
  }
  EXPECT_GE(count, 6u) << "expected the shipped netlist corpus in " << dir;
}

TEST(LintFixtures, BrokenFixturesTripTheirAdvertisedRules) {
  const auto dir = kSourceDir / "tests" / "netlists";
  ASSERT_TRUE(std::filesystem::is_directory(dir));

  const auto lint_file = [&](const std::string& name, bool dc_context) {
    Circuit ckt;
    parse_netlist(ckt, read_file(dir / name));
    LintOptions opts;
    opts.dc_context = dc_context;
    return lint(ckt, opts);
  };

  EXPECT_TRUE(has_rule(lint_file("broken_floating_node.cir", false), "lint.no-dc-path"));
  {
    const auto report = lint_file("broken_voltage_loop.cir", false);
    EXPECT_TRUE(has_rule(report, "lint.voltage-loop"));
    EXPECT_FALSE(report.ok());
  }
  {
    const auto report = lint_file("broken_current_cutset.cir", true);
    EXPECT_TRUE(has_rule(report, "lint.current-cutset"));
    EXPECT_FALSE(report.ok());
  }
  EXPECT_TRUE(has_rule(lint_file("broken_bad_magnitude.cir", false), "lint.magnitude"));
  EXPECT_TRUE(has_rule(lint_file("broken_dangling_terminal.cir", false),
                       "lint.dangling-terminal"));
  {
    Circuit ckt;
    EXPECT_THROW(parse_netlist(ckt, read_file(dir / "broken_parse_error.cir")),
                 NetlistError);
  }
}

}  // namespace
