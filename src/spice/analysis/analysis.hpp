// Netlist static-analysis framework (DESIGN.md §13).
//
// `analyze` runs an ordered sequence of passes over a Circuit's
// reflection data (Device::info) and its first DC assembly, without ever
// solving the system:
//
//   lint       the existing rule-based linter (src/spice/lint.hpp)
//   envelope   interval operating-envelope analysis: propagate source
//              value ranges through the DC-conductivity graph with
//              interval arithmetic, bounding worst-case node voltages
//              and branch currents
//   sparsity   fill and flop counts: factor the first DC assembly once
//              with the sparse backend (src/linalg/sparse.hpp) and
//              report its pattern, fill and work; nothing is solved
//   timescale  RC / L-over-R time constants, LC periods, and stimulus
//              breakpoint density, distilled into an initial/max-dt
//              recommendation and a stiffness warning
//
// Every call runs every pass, so a report always describes the circuit
// it was computed from. The report advises; nothing feeds it back into
// the engine, whose callers choose their own transient step.
//
// Diagnostic catalog (extends the lint.* set, same Diagnostic type):
//   analysis.overvoltage-risk   worst-case reverse voltage across a rated
//                               junction exceeds its rating     (warning)
//   analysis.envelope-unbounded a node's static envelope is unbounded or
//                               implausibly wide                (warning)
//   analysis.stiff              time-constant spread exceeds 1e6 (info)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/spice/circuit.hpp"
#include "src/spice/lint.hpp"

namespace ironic::spice::analysis {

struct AnalysisOptions {
  // Lint in DC-operating-point context (inductor loops and current
  // cutsets escalate to errors); forwarded to the embedded lint pass.
  bool dc_context = false;
  // Window scanned for stimulus breakpoints by the timescale pass.
  double transient_horizon = 1e-3;
};

// Worst-case static voltage band of one node. `anchored` nodes are tied
// to ground through a chain of rigid (ideal-voltage) branches, so the
// band is exact source arithmetic; unanchored nodes carry a conservative
// max-principle bound over their DC-conducting component.
struct NodeEnvelope {
  std::string node;
  double lo = 0.0;
  double hi = 0.0;
  bool anchored = false;
};

// Conservative worst-case current magnitude through one device (the
// larger winding/branch for multi-branch devices). `bounded` is false
// when the envelope gives no finite bound (e.g. an exponential junction
// across an unbounded voltage band).
struct DeviceCurrentBound {
  std::string device;
  double max_abs_current = 0.0;
  bool bounded = false;
};

struct EnvelopeResult {
  std::vector<NodeEnvelope> nodes;  // circuit node-id order
  std::vector<DeviceCurrentBound> currents;  // device registration order
};

// The sparse backend's own counts for the first DC assembly. When a
// pivot falls below tolerance, `singular` is set and the counts cover
// the columns eliminated before it.
struct FactorPrediction {
  std::size_t pattern_nnz = 0;  // structural nonzeros of A after merge
  std::size_t factor_nnz = 0;   // nonzeros of L+U incl. fill
  double factor_flops = 0.0;    // multiply-add + divide count of one factorization
  double solve_flops = 0.0;     // one forward+back substitution
  bool singular = false;        // a pivot fell below tolerance
};

struct SparsityResult {
  std::size_t unknowns = 0;
  FactorPrediction prediction;
};

// All timescale fields use 0 for "no such term found".
struct TimescaleResult {
  double tau_min = 0.0;          // smallest RC / L-over-R time constant
  double tau_max = 0.0;
  double t_osc_min = 0.0;        // smallest LC period 2*pi*sqrt(LC)
  double t_stim_min = 0.0;       // smallest intrinsic stimulus timescale
  double t_breakpoint_min = 0.0; // smallest gap between source breakpoints
  double stiffness_ratio = 0.0;  // tau_max / tau_min
  double dt_recommend = 0.0;     // recommended max transient step
};

struct AnalysisReport {
  LintReport lint;
  EnvelopeResult envelope;
  SparsityResult sparsity;
  TimescaleResult timescale;
  // analysis.* diagnostics (the lint.* ones live in `lint`).
  std::vector<Diagnostic> diagnostics;

  // Combined severity counts across lint.* and analysis.* diagnostics.
  std::size_t errors() const;
  std::size_t warnings() const;
  bool ok() const { return errors() == 0; }
  bool clean() const { return lint.clean() && diagnostics.empty(); }

  // Multi-line human-readable summary (always non-empty).
  std::string to_text() const;
  // Machine-readable report: envelope bands, predicted fill + flops, dt
  // recommendation, and both diagnostic sets. Each pass's time is its
  // spice.analysis.<pass> profiler zone, not a report field.
  std::string to_json() const;
};

// Run every pass over `circuit`. Finalizes the circuit; stamps devices
// once but leaves no lasting device state (the engines reset per-point
// state on entry).
AnalysisReport analyze(Circuit& circuit, const AnalysisOptions& options = {});

}  // namespace ironic::spice::analysis
