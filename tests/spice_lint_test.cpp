// Tests for the netlist linter (src/spice/lint.hpp): one unit test per
// rule, engine-integration tests proving validate() turns formerly
// diverging circuits into pre-run diagnostics, and an integration sweep
// asserting every shipped example netlist lints clean while every broken
// fixture trips its advertised rule.
#include "src/spice/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/obs/json.hpp"
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
