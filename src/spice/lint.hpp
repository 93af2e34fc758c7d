// Static circuit verification: the netlist linter.
//
// `lint()` walks a Circuit's device reflection data (Device::info /
// Device::check_params) and reports modeling mistakes *before* any matrix
// is assembled: floating nodes, ideal-voltage loops, current sources with
// no return path, shorted or dangling devices, out-of-range model
// parameters, and unit-suspicious magnitudes. Errors are conditions that
// make the MNA system singular or meaningless (the simulation would
// diverge or silently produce garbage); warnings are suspicious but
// simulable.
//
// `validate()` is the engine-facing wrapper: it throws
// CircuitValidationError when any error-severity diagnostic fires.
// solve_dc() (in DC context) and run_transient() call it on every run,
// turning "Newton mysteriously failed to converge" into a named, located
// diagnostic. Its report is the one lint() returns, but it runs the
// topology rules once per topology: the circuit keeps their findings per
// (Circuit::topology_revision, dc_context), and each call re-runs only
// the value rules (bad-value, param-range, magnitude), the ones a
// setter can move.
//
// Rule catalog (rule_id -> meaning):
//   lint.ground-missing    no device terminal touches node 0 at all
//   lint.dangling-node     a named node no device terminal references
//   lint.dangling-terminal a conducting terminal is the only connection
//                          to its node (the branch dead-ends)
//   lint.no-dc-path        node has no DC-conducting path to ground
//                          (only gshunt keeps the matrix regular)
//   lint.current-cutset    current source drives a component with no DC
//                          return path (error in DC: v -> I/gshunt)
//   lint.voltage-loop      cycle of ideal-voltage branches (V/E/opamp
//                          outputs) -- the MNA matrix is singular
//   lint.inductor-loop     cycle closed only through ideal (ESR-free)
//                          inductor windings -- a DC short circuit
//                          (error when linting for DC, warning for
//                          transient where companion models regularize)
//   lint.shorted-device    both ends of a two-terminal device on one node
//   lint.duplicate-name    two device names collide case-insensitively
//   lint.bad-value         model parameter breaks the formulation
//                          (non-positive R/C/L, k >= 1, r_on <= 0, ...)
//   lint.param-range       model parameter is physically implausible
//   lint.magnitude         R/C/L magnitude far outside the plausible
//                          band for this domain (suspected unit-suffix
//                          mistake, e.g. 150 MOhm for a 150 Ohm load)
//   lint.parse-error       (CLI only) the netlist failed to parse
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/spice/circuit.hpp"

namespace ironic::spice {

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string rule_id;  // "lint.<rule>"
  std::string device;   // offending device name ("" for node-level rules)
  std::string node;     // offending node name ("" for device-level rules)
  std::string message;

  // "error[lint.voltage-loop] V2 (node 'in'): ..." -- one line, no \n.
  std::string to_string() const;
};

struct LintOptions {
  // Lint for a DC operating-point analysis: inductor loops and
  // current-source cutsets become errors (they are singular/divergent at
  // DC but integrable in a transient).
  bool dc_context = false;
  // Magnitude plausibility heuristics (lint.magnitude). On by default;
  // exotic-but-deliberate designs can switch them off.
  bool magnitude_checks = true;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  std::size_t errors() const;
  std::size_t warnings() const;
  bool ok() const { return errors() == 0; }
  bool clean() const { return diagnostics.empty(); }

  // Multi-line human-readable report, one diagnostic per line plus a
  // summary line; "" when clean.
  std::string to_text() const;
  // JSON object: {"errors":N,"warnings":N,"diagnostics":[{...},...]}.
  std::string to_json() const;
};

// Run every rule over `circuit`. Does not require finalize(); never
// throws on lintable input.
LintReport lint(const Circuit& circuit, const LintOptions& options = {});

// Thrown by validate() (and therefore by solve_dc/run_transient) when the
// linter finds error-severity diagnostics. what() carries the full text
// report; `report` keeps the structured diagnostics.
class CircuitValidationError : public std::invalid_argument {
 public:
  explicit CircuitValidationError(LintReport r);
  const LintReport report;
};

// Engine-facing gate: lint and throw CircuitValidationError if any error
// diagnostic fires. Returns the (possibly warning-bearing) report
// otherwise so callers can surface warnings. Updates the circuit's
// topology memo, so like a run it must not race another validate() of
// the same circuit.
LintReport validate(const Circuit& circuit, const LintOptions& options = {});

}  // namespace ironic::spice
