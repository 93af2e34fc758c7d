#include "src/spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "src/linalg/sparse.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/spice/lint.hpp"
#include "src/obs/trace.hpp"
#include "src/util/log.hpp"

namespace ironic::spice {
namespace {

// A transient gives up when Newton fails at a step below dt_max / this.
constexpr double kMinStepDivisor = 65536.0;

// Newton loop.
constexpr int kMaxNewtonIterations = 150;
constexpr double kRelTol = 1e-4;    // relative tolerance on unknown updates
constexpr double kVnTol = 1e-6;     // absolute voltage tolerance [V]
constexpr double kAbsTol = 1e-9;    // absolute current tolerance [A]
constexpr double kMaxUpdate = 5.0;  // damping: clamp ||dx||_inf to this

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;  // Newton iterations attempted (1 on the linear path)
};

// Cached handles into the metrics registry for the engine's hot paths;
// resolved once, reused by every solve in the process.
struct EngineMetrics {
  obs::Counter& dc_solves;
  obs::Counter& dc_newton_iterations;
  obs::Counter& dc_gmin_escalations;
  obs::Counter& dc_source_escalations;
  obs::Counter& dc_failures;
  obs::Counter& tr_runs;
  obs::Counter& tr_accepted_steps;
  obs::Counter& tr_rejected_steps;
  obs::Counter& tr_newton_iterations;
  obs::Counter& tr_factorizations;
  obs::Counter& tr_solves;
  obs::Counter& tr_breakpoint_hits;
  obs::Counter& tr_checkpoints;
  obs::Counter& tr_resumes;
  // Solver-layer counters, fed with per-run deltas of the backend's
  // SolverStats (the backend outlives runs via the circuit cache).
  obs::Counter& sv_factorizations;
  obs::Counter& sv_refactorizations;
  obs::Counter& sv_solves;
  obs::Counter& sv_pattern_builds;
  obs::Counter& sv_pattern_reuses;
  obs::Counter& sv_sequence_divergences;
  obs::Gauge& sv_nnz;
  obs::Gauge& sv_factor_nnz;
  obs::Histogram& tr_newton_iters_per_step;

  static EngineMetrics& get() {
    static EngineMetrics m = [] {
      auto& r = obs::MetricsRegistry::instance();
      return EngineMetrics{
          r.counter("spice.dc.solves"),
          r.counter("spice.dc.newton_iterations"),
          r.counter("spice.dc.gmin_escalations"),
          r.counter("spice.dc.source_escalations"),
          r.counter("spice.dc.failures"),
          r.counter("spice.transient.runs"),
          r.counter("spice.transient.accepted_steps"),
          r.counter("spice.transient.rejected_steps"),
          r.counter("spice.transient.newton_iterations"),
          r.counter("spice.transient.factorizations"),
          r.counter("spice.transient.solves"),
          r.counter("spice.transient.breakpoint_hits"),
          r.counter("spice.transient.checkpoints"),
          r.counter("spice.transient.resumes"),
          r.counter("spice.solver.factorizations"),
          r.counter("spice.solver.refactorizations"),
          r.counter("spice.solver.solves"),
          r.counter("spice.solver.pattern_builds"),
          r.counter("spice.solver.pattern_reuses"),
          r.counter("spice.solver.sequence_divergences"),
          r.gauge("spice.solver.nnz"),
          r.gauge("spice.solver.factor_nnz"),
          r.histogram("spice.transient.newton_iters_per_step",
                      {1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100, 150}),
      };
    }();
    return m;
  }
};

// Everything a stamp reads at one solve besides the iterate.
struct SolvePoint {
  double time = 0.0;
  double dt = 0.0;  // <= 0 in DC analysis
  Integrator integrator = Integrator::kBackwardEuler;
  bool dc = false;
  double source_scale = 1.0;
  double extra_gshunt = 0.0;  // gmin-stepping leak on top of kGshunt
};

// Right-hand side and Newton update scratch, held by an analysis for its
// whole run instead of allocated per solve.
struct SolveWorkspace {
  explicit SolveWorkspace(std::size_t n) : rhs(n, 0.0), x_new(n, 0.0) {}
  std::vector<double> rhs;
  std::vector<double> x_new;
};

// Stamps every device at `point`, plus the node-to-ground leak, into
// `solver` and `rhs`. With `matrix` false only `rhs` is rebuilt, by the
// devices that declare a right-hand-side stamp (Device::step_hooks), and
// the solver keeps the matrix it holds. Returns whether a device limited
// its evaluation voltages.
bool stamp_system(Circuit& circuit, linalg::SparseSolver<double>& solver, std::vector<double>& rhs,
                  std::span<const double> x, const SolvePoint& point, bool matrix) {
  PROF_ZONE("spice.stamp");
  std::fill(rhs.begin(), rhs.end(), 0.0);
  StampContext ctx{solver, rhs, x, point.time, point.dt, point.integrator, point.dc,
                   point.source_scale, false, matrix};
  if (!matrix) {
    for (Device* dev : circuit.rhs_stamp_devices()) dev->stamp(ctx);
    return ctx.limited;
  }
  solver.begin_assembly();
  for (const auto& dev : circuit.devices()) dev->stamp(ctx);
  // Node-to-ground leak. Stamped even when it is 0.0 so the node
  // diagonals belong to the sparse pattern unconditionally: the gmin
  // ladder reaching zero then changes values, never structure.
  const double gshunt = kGshunt + point.extra_gshunt;
  for (std::size_t i = 0; i < circuit.num_nodes(); ++i) {
    solver.add(static_cast<int>(i), static_cast<int>(i), gshunt);
  }
  return ctx.limited;
}

// out = A^-1 rhs, factoring the assembled matrix first unless the solver
// already holds its factors. False when the matrix is singular.
bool factor_and_solve(linalg::SparseSolver<double>& solver, const std::vector<double>& rhs,
                      std::vector<double>& out, bool factor) {
  try {
    if (factor) {
      PROF_ZONE("spice.lu_factor");
      solver.factor();
    }
    out = rhs;
    PROF_ZONE("spice.lu_solve");
    solver.solve_in_place(out);
  } catch (const linalg::SingularMatrixError&) {
    return false;
  }
  return true;
}

// The solve of a linear circuit (Circuit::linear) at one point: its
// stamps never read the iterate, so one undamped solve is the exact
// answer and there is nothing to converge. With `assemble` false the
// solver already holds this point's factored matrix (the linear-matrix
// contract on Device::nonlinear) and only the right-hand side is stamped.
NewtonOutcome linear_solve(Circuit& circuit, linalg::SparseSolver<double>& solver,
                           SolveWorkspace& ws, std::vector<double>& x,
                           const SolvePoint& point, bool assemble) {
  PROF_ZONE("spice.linear_solve");
  stamp_system(circuit, solver, ws.rhs, x, point, assemble);
  return {factor_and_solve(solver, ws.rhs, x, assemble), 1};
}

// One Newton solve of the nonlinear MNA system at a fixed time point.
// `x` is both the initial guess and the result. The solver persists
// across calls (circuit-owned), so its cached stamp slots and symbolic
// factorization carry over between iterations and time steps.
NewtonOutcome newton_solve(Circuit& circuit, linalg::SparseSolver<double>& solver,
                           SolveWorkspace& ws, std::vector<double>& x,
                           const SolvePoint& point) {
  PROF_ZONE("spice.newton");
  const std::size_t n = circuit.num_unknowns();
  const std::size_t num_nodes = circuit.num_nodes();
  std::vector<double>& x_new = ws.x_new;
  NewtonOutcome outcome;

  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    ++outcome.iterations;
    const bool limiting_active =
        stamp_system(circuit, solver, ws.rhs, x, point, /*matrix=*/true);
    if (!factor_and_solve(solver, ws.rhs, x_new, /*factor=*/true)) break;

    // Convergence check on the update.
    bool converged = true;
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = std::abs(x_new[i] - x[i]);
      max_delta = std::max(max_delta, delta);
      const double magnitude = std::max(std::abs(x_new[i]), std::abs(x[i]));
      const double abs_tol = i < num_nodes ? kVnTol : kAbsTol;
      if (delta > abs_tol + kRelTol * magnitude) converged = false;
    }

    // Damping: clamp runaway updates to keep the exponentials bounded.
    if (max_delta > kMaxUpdate) {
      const double scale = kMaxUpdate / max_delta;
      for (std::size_t i = 0; i < n; ++i) {
        x_new[i] = x[i] + scale * (x_new[i] - x[i]);
      }
      converged = false;
    }

    if (limiting_active) converged = false;
    x.swap(x_new);
    if (converged && iter >= 1) {
      outcome.converged = true;
      break;
    }
  }
  return outcome;
}

// Feed the per-run delta of a backend's lifetime stats into the metrics
// registry (the backend outlives runs via the circuit's solver cache).
void add_solver_metrics(const linalg::SolverStats& before, const linalg::SolverStats& after) {
  if constexpr (obs::kEnabled) {
    auto& m = EngineMetrics::get();
    m.sv_factorizations.add(after.factorizations - before.factorizations);
    m.sv_refactorizations.add(after.refactorizations - before.refactorizations);
    m.sv_solves.add(after.solves - before.solves);
    m.sv_pattern_builds.add(after.pattern_builds - before.pattern_builds);
    m.sv_pattern_reuses.add(after.pattern_reuses - before.pattern_reuses);
    m.sv_sequence_divergences.add(after.sequence_divergences - before.sequence_divergences);
    m.sv_nnz.set(static_cast<double>(after.nnz));
    m.sv_factor_nnz.set(static_cast<double>(after.factor_nnz));
  }
}

void reset_devices_for_point(Circuit& circuit, double time, double dt) {
  for (Device* dev : circuit.start_step_devices()) dev->start_step(time, dt);
}

}  // namespace

DcResult solve_dc(Circuit& circuit) {
  LintOptions lint_opts;
  lint_opts.dc_context = true;
  validate(circuit, lint_opts);  // throws CircuitValidationError on errors
  circuit.finalize();
  const std::size_t n = circuit.num_unknowns();
  linalg::SparseSolver<double>& solver = circuit.acquire_solver();
  const linalg::SolverStats solver_before = solver.stats();
  DcResult result;
  result.x.assign(n, 0.0);

  obs::Span span("solve_dc", "spice");
  const auto finish = [&](DcResult&& done) {
    if constexpr (obs::kEnabled) {
      auto& m = EngineMetrics::get();
      m.dc_solves.add();
      m.dc_newton_iterations.add(static_cast<std::uint64_t>(done.total_iterations));
      if (!done.converged) m.dc_failures.add();
      add_solver_metrics(solver_before, solver.stats());
      span.arg("strategy", done.converged ? done.strategy : "failed");
      span.arg("iterations", std::to_string(done.total_iterations));
    }
    return std::move(done);
  };

  SolveWorkspace ws(n);
  // One DC solve from the guess in `x`: the single exact solve for a
  // linear circuit, Newton otherwise.
  const auto solve = [&](std::vector<double>& x, double source_scale, double extra_gshunt) {
    reset_devices_for_point(circuit, 0.0, 0.0);
    const SolvePoint point{0.0, 0.0, Integrator::kBackwardEuler, /*dc=*/true, source_scale,
                           extra_gshunt};
    const auto outcome =
        circuit.linear()
            ? linear_solve(circuit, solver, ws, x, point, /*assemble=*/true)
            : newton_solve(circuit, solver, ws, x, point);
    result.total_iterations += outcome.iterations;
    return outcome.converged;
  };

  // 1. Plain Newton.
  {
    std::vector<double> x(n, 0.0);
    if (solve(x, 1.0, 0.0)) {
      result.x = std::move(x);
      result.converged = true;
      result.strategy = "newton";
      return finish(std::move(result));
    }
  }

  // 2. Gmin (shunt) stepping: start heavily damped, relax to nominal.
  {
    if constexpr (obs::kEnabled) EngineMetrics::get().dc_gmin_escalations.add();
    std::vector<double> x(n, 0.0);
    bool ladder_ok = true;
    for (double g = 1e-2; g >= 1e-12; g /= 10.0) {
      if (!solve(x, 1.0, g)) {
        ladder_ok = false;
        break;
      }
    }
    if (ladder_ok && solve(x, 1.0, 0.0)) {
      result.x = std::move(x);
      result.converged = true;
      result.strategy = "gmin-stepping";
      return finish(std::move(result));
    }
  }

  // 3. Source stepping.
  {
    if constexpr (obs::kEnabled) EngineMetrics::get().dc_source_escalations.add();
    std::vector<double> x(n, 0.0);
    bool ladder_ok = true;
    for (double scale = 0.05; scale <= 1.0 + 1e-12; scale += 0.05) {
      if (!solve(x, std::min(scale, 1.0), 0.0)) {
        ladder_ok = false;
        break;
      }
    }
    if (ladder_ok) {
      result.x = std::move(x);
      result.converged = true;
      result.strategy = "source-stepping";
      return finish(std::move(result));
    }
  }

  util::Log::event(util::LogLevel::kWarn, "spice.dc",
                   {{"event", "all_strategies_failed"},
                    {"iterations", std::to_string(result.total_iterations)}});
  return finish(std::move(result));
}

TransientResult run_transient(Circuit& circuit, const TransientOptions& options,
                              TransientStats* stats) {
  // Both times size the row reservation and bound the step loop below,
  // where a NaN or an infinity has no meaning.
  if (!(std::isfinite(options.t_stop) && options.t_stop > 0.0)) {
    throw std::invalid_argument("run_transient: t_stop must be finite and > 0");
  }
  if (!(std::isfinite(options.dt_max) && options.dt_max > 0.0)) {
    throw std::invalid_argument("run_transient: dt_max must be finite and > 0");
  }
  const double dt_max = options.dt_max;
  linalg::SparseSolver<double>& solver = [&]() -> linalg::SparseSolver<double>& {
    PROF_ZONE("spice.transient.setup");
    // Transient context: DC-only hazards like inductor loops stay warnings.
    validate(circuit);  // throws CircuitValidationError on errors
    circuit.finalize();
    return circuit.acquire_solver();
  }();
  // Per-run tallies, kept even when the caller passes no stats: the
  // metrics registry is fed from the same numbers. Folded into the
  // caller's struct (accumulating, as before) on every exit path.
  TransientStats run;
  obs::Span span("run_transient", "spice");
  // Folds the per-run tallies into the caller's stats and the metrics
  // registry on every exit path, including the throwing ones.
  struct Finalize {
    TransientStats& run;
    TransientStats* out;
    obs::Span& span;
    const linalg::SparseSolver<double>& solver;
    linalg::SolverStats solver_before;
    ~Finalize() {
      if (out != nullptr) {
        out->accepted_steps += run.accepted_steps;
        out->rejected_steps += run.rejected_steps;
        out->newton_iterations += run.newton_iterations;
        out->factorizations += run.factorizations;
        out->solves += run.solves;
        out->breakpoint_hits += run.breakpoint_hits;
        out->max_newton_iterations =
            std::max(out->max_newton_iterations, run.max_newton_iterations);
      }
      if constexpr (obs::kEnabled) {
        auto& m = EngineMetrics::get();
        m.tr_runs.add();
        m.tr_accepted_steps.add(run.accepted_steps);
        m.tr_rejected_steps.add(run.rejected_steps);
        m.tr_newton_iterations.add(run.newton_iterations);
        m.tr_factorizations.add(run.factorizations);
        m.tr_solves.add(run.solves);
        m.tr_breakpoint_hits.add(run.breakpoint_hits);
        add_solver_metrics(solver_before, solver.stats());
        span.arg("accepted_steps", std::to_string(run.accepted_steps));
        span.arg("rejected_steps", std::to_string(run.rejected_steps));
        span.arg("newton_iterations", std::to_string(run.newton_iterations));
      }
    }
  } finalize{run, stats, span, solver, solver.stats()};
  const std::size_t n = circuit.num_unknowns();
  const double min_step = dt_max / kMinStepDivisor;

  const TransientCheckpoint* resume = options.resume_from;
  const bool resuming = resume != nullptr && resume->valid();
  if (resuming) {
    if (resume->x.size() != n) {
      throw std::invalid_argument(
          "run_transient: resume_from checkpoint does not match circuit size");
    }
    if (resume->dt <= 0.0) {
      throw std::invalid_argument("run_transient: resume_from has no step size");
    }
    if (resume->time >= options.t_stop - 1e-15 * options.t_stop) {
      throw std::invalid_argument("run_transient: resume_from.time is at/after t_stop");
    }
  }

  // Initial solution: rest (zeros, devices add their initial conditions
  // in initialize()) or the checkpointed solution.
  std::vector<double> x = resuming ? resume->x : std::vector<double>(n, 0.0);
  for (const auto& dev : circuit.devices()) dev->initialize(x);
  if (resuming) {
    // initialize() above seeded companion models from the checkpointed
    // solution; now overwrite their cross-step history with the exact
    // state captured by save_state, in the same device order.
    const std::span<const double> blob(resume->device_state);
    std::size_t offset = 0;
    for (const auto& dev : circuit.devices()) {
      offset += dev->restore_state(blob.subspan(offset));
    }
    if (offset != resume->device_state.size()) {
      throw std::invalid_argument(
          "run_transient: resume_from device-state blob does not match circuit");
    }
    if constexpr (obs::kEnabled) EngineMetrics::get().tr_resumes.add();
  }

  // Recording setup.
  const auto all_names = circuit.signal_names();
  std::vector<std::string> record_names;
  std::vector<std::size_t> record_indices;
  if (options.record_signals.empty()) {
    record_names = all_names;
    record_indices.resize(all_names.size());
    for (std::size_t i = 0; i < all_names.size(); ++i) record_indices[i] = i;
  } else {
    for (const auto& want : options.record_signals) {
      const auto it = std::find(all_names.begin(), all_names.end(), want);
      if (it == all_names.end()) {
        throw std::invalid_argument("run_transient: unknown record signal '" + want + "'");
      }
      record_names.push_back(want);
      record_indices.push_back(static_cast<std::size_t>(it - all_names.begin()));
    }
  }
  double t = resuming ? resume->time : 0.0;
  const std::size_t record_every = static_cast<std::size_t>(std::max(options.record_every, 1));
  TransientResult result(std::move(record_names), std::move(record_indices));
  // Rows for the span this run simulates, not the whole [0, t_stop].
  result.reserve(static_cast<std::size_t>((options.t_stop - t) / dt_max /
                                          static_cast<double>(record_every)) + 16);

  // Breakpoints from stimulus waveforms.
  std::vector<double> breakpoints;
  for (const auto& dev : circuit.devices()) {
    dev->collect_breakpoints(0.0, options.t_stop, breakpoints);
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end(),
                                [](double a, double b) { return std::abs(a - b) < 1e-15; }),
                    breakpoints.end());
  std::size_t bp_index = 0;

  // The checkpointed point itself was recorded by the run that captured
  // it, so a resumed run starts recording strictly after resume->time.
  if (!resuming) result.append(0.0, x);

  double dt = resuming ? resume->dt : dt_max;
  int success_streak = resuming ? resume->success_streak : 0;
  // Accepted-step ordinal used for record decimation; restored on resume
  // so the record phase is continuous across the splice.
  std::size_t step_index = resuming ? resume->step_index : 0;
  std::vector<double> x_try(n);
  const std::size_t kMaxSteps = 200'000'000;

  obs::Histogram* newton_hist = nullptr;
  if constexpr (obs::kEnabled) {
    newton_hist = &EngineMetrics::get().tr_newton_iters_per_step;
  }

  SolveWorkspace ws(n);
  // A linear circuit's matrix is a function of this key (the
  // linear-matrix contract on Device::nonlinear; the integrator is fixed
  // per run), so while the key matches the one of the last factored
  // assembly a step only restamps the right-hand side and solves.
  const bool linear = circuit.linear();
  struct LinearKey {
    double dt;
    bool stepped;  // a step was accepted since initialize()/restore_state()
    bool operator==(const LinearKey&) const = default;
  };
  std::optional<LinearKey> factored_key;

  while (t < options.t_stop - 1e-15 * options.t_stop) {
    if (run.accepted_steps + run.rejected_steps > kMaxSteps) {
      throw ConvergenceError("run_transient: step-count safety limit exceeded");
    }
    // Advance the breakpoint cursor past points at/behind t. The slack
    // tolerates accumulated summation error in t relative to the exact
    // breakpoint value.
    const double bp_slack = std::max(1e-18, 1e-12 * t);
    while (bp_index < breakpoints.size() && breakpoints[bp_index] <= t + bp_slack) {
      ++bp_index;
    }
    double dt_step = std::min(dt, options.t_stop - t);
    // Snap the step to the next stimulus breakpoint when it falls inside
    // this step; snapped points carry a recording guarantee (see
    // TransientOptions::record_every). The relative tolerance on the
    // comparison matters: after ~k accumulated steps, t carries O(k) ulps
    // of rounding error, so a breakpoint exactly one nominal step away can
    // measure infinitesimally beyond dt_step and would otherwise be
    // stepped *onto* (within rounding) but never flagged as snapped.
    bool snapped_to_bp = false;
    if (bp_index < breakpoints.size()) {
      const double to_bp = breakpoints[bp_index] - t;
      if (to_bp > bp_slack && to_bp <= dt_step * (1.0 + 1e-9)) {
        dt_step = to_bp;
        snapped_to_bp = true;
      }
    }

    const double t_next = t + dt_step;
    reset_devices_for_point(circuit, t_next, dt_step);
    x_try = x;
    const SolvePoint point{t_next, dt_step, options.integrator, /*dc=*/false, 1.0, 0.0};
    const linalg::SolverStats solver_entry = solver.stats();
    NewtonOutcome outcome;
    if (linear) {
      const LinearKey key{dt_step, run.accepted_steps > 0};
      outcome = linear_solve(circuit, solver, ws, x_try, point,
                             /*assemble=*/factored_key != key);
      factored_key = outcome.converged ? std::optional<LinearKey>(key) : std::nullopt;
    } else {
      outcome = newton_solve(circuit, solver, ws, x_try, point);
    }
    run.newton_iterations += static_cast<std::size_t>(outcome.iterations);
    run.factorizations += solver.stats().factorizations - solver_entry.factorizations;
    run.solves += solver.stats().solves - solver_entry.solves;
    run.max_newton_iterations =
        std::max(run.max_newton_iterations, static_cast<std::size_t>(outcome.iterations));
    if (newton_hist != nullptr) {
      newton_hist->observe(static_cast<double>(outcome.iterations));
    }

    if (!outcome.converged) {
      ++run.rejected_steps;
      success_streak = 0;
      dt = dt_step / 2.0;
      if (dt < min_step) {
        throw ConvergenceError("run_transient: Newton failed below minimum step at t=" +
                                 std::to_string(t_next));
      }
      continue;
    }

    for (Device* dev : circuit.accept_step_devices()) {
      dev->accept_step(x_try, t_next, dt_step, options.integrator);
    }
    x.swap(x_try);
    t = t_next;
    ++run.accepted_steps;
    ++step_index;
    if (snapped_to_bp) ++run.breakpoint_hits;

    // Recording guarantee: breakpoint-snapped points and the final point
    // are never decimated away (see TransientOptions::record_every); they
    // are also the points a checkpoint is captured at.
    const bool is_final = t >= options.t_stop - 1e-15 * options.t_stop;
    const bool guaranteed = is_final || snapped_to_bp;
    if (guaranteed || step_index % record_every == 0) result.append(t, x);

    // Step recovery after a run of clean accepts.
    ++success_streak;
    if (success_streak >= 4 && dt < dt_max) {
      dt = std::min(dt * 2.0, dt_max);
      success_streak = 0;
    }

    // Capture after the step-control update so a resume continues with
    // exactly the dt/streak the uninterrupted run would have used next.
    if (guaranteed && options.checkpoint != nullptr) {
      PROF_ZONE("spice.checkpoint");
      TransientCheckpoint& cp = *options.checkpoint;
      cp.time = t;
      cp.dt = dt;
      cp.x = x;
      cp.device_state.clear();
      for (const auto& dev : circuit.devices()) dev->save_state(cp.device_state);
      cp.success_streak = success_streak;
      cp.step_index = step_index;
      if constexpr (obs::kEnabled) EngineMetrics::get().tr_checkpoints.add();
    }
  }
  return result;
}

}  // namespace ironic::spice
