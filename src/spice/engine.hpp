// Analysis engines: Newton-based DC operating point and transient.
//
// Both validate the circuit first (src/spice/lint.hpp): solve_dc lints in
// DC context, run_transient with the DC-only hazards relaxed, and each
// throws CircuitValidationError on a lint error before any matrix is
// assembled.
//
// DC: plain Newton first, then gmin (shunt) stepping, then source
// stepping — the standard SPICE escalation ladder.
//
// Transient: from rest (x = 0 plus device initial conditions) or from a
// checkpoint. Fixed nominal step with breakpoint snapping (clock edges
// and envelope corners are hit exactly), Newton at each point, the step
// halved after a Newton failure and doubled back after four clean
// accepts.
//
// A linear circuit (Circuit::linear) skips Newton: one undamped solve
// per point is exact, and a transient re-assembles and re-factors its
// matrix only when the step size changes or after its first accepted
// step (Device::nonlinear states the contract this rests on).
//
// A circuit keeps its solver's pattern and recorded stamp sequence
// across runs, but every DC solve and transient starts with a full
// factorization that picks its pivots from its own matrices: a run on a
// circuit whose values changed since its last run pivots as a freshly
// built copy would.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/trace.hpp"

namespace ironic::spice {

// An analysis gave up without a solution: the DC operating point behind
// an AC run failed to converge, Newton failed below the minimum
// transient step, or the step-count safety limit was hit.
struct ConvergenceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct DcResult {
  linalg::Vector x;
  bool converged = false;
  int total_iterations = 0;
  std::string strategy;  // "newton", "gmin-stepping", "source-stepping"
};

// Solve the DC operating point. Throws CircuitValidationError on lint
// errors (DC context) and std::invalid_argument on malformed circuits;
// returns converged == false if all strategies fail.
DcResult solve_dc(Circuit& circuit);

// A resumable snapshot of a transient run: the accepted solution, the
// concatenated device integration state (Device::save_state, device
// order), and the step-control variables. Captured at breakpoint-snapped
// accepted points and at the final point. Resuming is bit-exact: the
// tail of a resumed run equals the tail of an uninterrupted run sample
// for sample, because every loop variable that influences step selection
// is part of the snapshot.
struct TransientCheckpoint {
  double time = -1.0;
  double dt = 0.0;                   // next-step size in effect at capture
  std::vector<double> x;             // accepted solution at `time`
  std::vector<double> device_state;  // Device::save_state blobs, device order
  // Step-control state needed for bit-exact resume.
  int success_streak = 0;
  std::size_t step_index = 0;        // accepted steps since t = 0 (record phase)

  bool valid() const { return time >= 0.0 && !x.empty(); }
};

struct TransientOptions {
  // Both times must be finite and > 0 (std::invalid_argument otherwise).
  double t_stop = 1e-3;
  // Nominal step (engine may shorten, never exceed).
  double dt_max = 1e-6;
  Integrator integrator = Integrator::kTrapezoidal;
  // Record every k-th accepted point. Guarantee: points the engine
  // snapped to a stimulus breakpoint (clock edges, envelope corners) and
  // the final point are ALWAYS recorded, regardless of the decimation
  // phase — decimation must never hide the exact instants the waveforms
  // were shaped around.
  int record_every = 1;
  std::vector<std::string> record_signals;  // empty -> all signals
  // --- checkpoint/restart (DESIGN.md §10) ----------------------------------
  // When non-null, the engine overwrites *checkpoint at every accepted
  // breakpoint-snapped step and at the final accepted point, the points
  // the recording guarantee above already keeps.
  TransientCheckpoint* checkpoint = nullptr;
  // When valid, resume from this snapshot instead of t = 0: solution,
  // device history, and step control are restored, initialization is
  // skipped, and only points after resume_from->time are recorded (the
  // checkpointed point itself was recorded by the run that captured it).
  const TransientCheckpoint* resume_from = nullptr;
};

struct TransientStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;       // Newton failures (the step is halved)
  std::size_t newton_iterations = 0;
  // Numeric LU factorizations actually performed, and triangular solves.
  // Every Newton iteration solves once. A linear circuit takes exactly
  // one iteration per step attempt and factors only when its matrix
  // changes (a new step size, or its first accepted step), so
  // factorizations <= solves == newton_iterations.
  std::size_t factorizations = 0;
  std::size_t solves = 0;
  std::size_t breakpoint_hits = 0;      // accepted steps snapped to a breakpoint
  std::size_t max_newton_iterations = 0;  // worst single step attempt
};

// Run a transient analysis. Throws CircuitValidationError on lint errors
// and ConvergenceError if Newton still fails once halving has taken the
// step below dt_max / 65536.
TransientResult run_transient(Circuit& circuit, const TransientOptions& options,
                              TransientStats* stats = nullptr);

}  // namespace ironic::spice
