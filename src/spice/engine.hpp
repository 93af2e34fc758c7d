// Analysis engines: Newton-based DC operating point and transient.
//
// DC: plain Newton first, then gmin (shunt) stepping, then source
// stepping — the standard SPICE escalation ladder.
//
// Transient: fixed nominal step with breakpoint snapping (clock edges and
// envelope corners are hit exactly), Newton at each point, and automatic
// step halving/recovery when Newton fails to converge.
//
// A linear circuit (Circuit::linear) skips Newton: one undamped solve
// per point is exact, and a transient re-assembles and re-factors its
// matrix only when the step size changes or after its first accepted
// step (Device::nonlinear states the contract this rests on).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/trace.hpp"

namespace ironic::spice {

// An analysis gave up without a solution: the DC operating point behind
// a transient or AC run failed to converge, Newton failed below the
// minimum transient step, or the step-count safety limit was hit.
struct ConvergenceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct NewtonOptions {
  int max_iterations = 150;
  double reltol = 1e-4;    // relative tolerance on unknown updates
  double vntol = 1e-6;     // absolute voltage tolerance [V]
  double abstol = 1e-9;    // absolute current tolerance [A]
  double gmin = 1e-12;     // junction floor conductance [S]
  double gshunt = 1e-12;   // node-to-ground leak, keeps matrices regular [S]
  double max_update = 5.0; // Newton damping: clamp ||dx||_inf to this
};

struct DcOptions {
  NewtonOptions newton;
  bool gmin_stepping = true;
  bool source_stepping = true;
  // Run the netlist linter (see src/spice/lint.hpp) before solving and
  // throw CircuitValidationError on error diagnostics, so misconfigured
  // circuits fail with a named rule instead of a Newton non-convergence.
  bool validate = true;
};

struct DcResult {
  linalg::Vector x;
  bool converged = false;
  int total_iterations = 0;
  std::string strategy;  // "newton", "gmin-stepping", "source-stepping"
};

// Solve the DC operating point. Throws std::invalid_argument on malformed
// circuits; returns converged == false if all strategies fail.
DcResult solve_dc(Circuit& circuit, const DcOptions& options = {});

// A resumable snapshot of a transient run: the accepted solution, the
// concatenated device integration state (Device::save_state, device
// order), and the step-control variables. Captured at breakpoint-snapped
// accepted points, at the checkpoint interval, and at the final point.
// Resuming is bit-exact: the tail of a resumed run equals the tail of an
// uninterrupted run sample for sample, because every loop variable that
// influences step selection is part of the snapshot.
struct TransientCheckpoint {
  double time = -1.0;
  double dt = 0.0;                   // next-step size in effect at capture
  std::vector<double> x;             // accepted solution at `time`
  std::vector<double> device_state;  // Device::save_state blobs, device order
  // Step-control state needed for bit-exact resume.
  int success_streak = 0;
  std::size_t step_index = 0;        // accepted steps since t = 0 (record phase)
  std::vector<double> x_prev;        // LTE predictor history (adaptive mode)
  double dt_prev = 0.0;
  bool have_prev_point = false;

  bool valid() const { return time >= 0.0 && !x.empty(); }
};

struct TransientOptions {
  double t_stop = 1e-3;
  // Nominal step (engine may shorten, never exceed). 0 = auto: use the
  // circuit's timescale-analysis hint (Circuit::dt_hint) when one is
  // installed, else 1 us. Negative values are rejected.
  double dt_max = 0.0;
  double dt_min = 0.0;      // 0 -> dt_max / 65536
  Integrator integrator = Integrator::kTrapezoidal;
  bool start_from_dc = false;  // false: use-initial-conditions (x = 0 + device ICs)
  NewtonOptions newton;
  // Record every k-th accepted point. Guarantee: points the engine
  // snapped to a stimulus breakpoint (clock edges, envelope corners) and
  // the final point are ALWAYS recorded, regardless of the decimation
  // phase — decimation must never hide the exact instants the waveforms
  // were shaped around. (Points before `record_start` are still
  // suppressed.)
  int record_every = 1;
  std::vector<std::string> record_signals;  // empty -> all signals
  double record_start = 0.0;              // suppress recording before this time
  // Local-truncation-error step control: compare each solution against a
  // linear extrapolation of the previous two points and shrink/grow the
  // step to hold the discrepancy near `lte_tol` (per-unknown, in volts/
  // amps). dt never exceeds dt_max, so breakpoint snapping still works.
  bool adaptive = false;
  double lte_tol = 1e-3;
  // Pre-run static validation, as in DcOptions::validate (transient
  // context: DC-only hazards like inductor loops stay warnings).
  bool validate = true;
  // --- checkpoint/restart (DESIGN.md §10) ----------------------------------
  // When non-null, the engine overwrites *checkpoint at every accepted
  // breakpoint-snapped step, every `checkpoint_interval` seconds of
  // simulated time (0 = breakpoints and final point only), and at the
  // final accepted point. Checkpointed points carry the same recording
  // guarantee as breakpoint-snapped ones.
  TransientCheckpoint* checkpoint = nullptr;
  double checkpoint_interval = 0.0;
  // When valid, resume from this snapshot instead of t = 0: solution,
  // device history, and step control are restored, initialization is
  // skipped, and only points after resume_from->time are recorded (the
  // checkpointed point itself was recorded by the run that captured it).
  const TransientCheckpoint* resume_from = nullptr;
};

struct TransientStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;       // Newton failures + LTE rejections
  std::size_t newton_iterations = 0;
  // Numeric LU factorizations actually performed, and triangular solves.
  // Every Newton iteration solves once. A linear circuit takes exactly
  // one iteration per step attempt and factors only when its matrix
  // changes (a new step size, or its first accepted step), so
  // factorizations <= solves == newton_iterations.
  std::size_t factorizations = 0;
  std::size_t solves = 0;
  std::size_t breakpoint_hits = 0;      // accepted steps snapped to a breakpoint
  std::size_t lte_rejections = 0;       // subset of rejected_steps (adaptive mode)
  std::size_t max_newton_iterations = 0;  // worst single step attempt
};

// Run a transient analysis. Throws ConvergenceError if the step size
// underflows dt_min without convergence.
TransientResult run_transient(Circuit& circuit, const TransientOptions& options,
                              TransientStats* stats = nullptr);

}  // namespace ironic::spice
