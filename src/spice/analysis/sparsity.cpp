// Symbolic sparsity / fill-prediction pass.
//
// Captures the exact stamp stream the engine's first DC Newton assembly
// would produce — same device order, same start_step(0, 0) reset, same
// zero iterate, gmin, source scale, and unconditional gshunt diagonals —
// and replays it through linalg::predict_sparse_factor, which mirrors
// SparseSolver's pattern merge and left-looking LU bit for bit. The
// predicted factor nnz therefore matches the runtime
// SparseSolver::stats().factor_nnz exactly (pinned by
// tests/spice_analysis_test.cpp on every example netlist).
#include <stdexcept>
#include <vector>

#include "src/linalg/costmodel.hpp"
#include "src/spice/analysis/passes.hpp"
#include "src/spice/engine.hpp"

namespace ironic::spice::analysis::detail {
namespace {

// LinearSolver facade that records add() calls in order instead of
// assembling a matrix. factor/solve are never reached by stamping.
class CaptureSolver final : public linalg::LinearSolver {
 public:
  explicit CaptureSolver(std::size_t n) : n_(n) {}

  const char* name() const override { return "capture"; }
  std::size_t size() const override { return n_; }

  void begin_assembly() override { entries_.clear(); }
  void add(int row, int col, double value) override {
    entries_.push_back({row, col, value});
  }
  void factor(double /*pivot_tol*/) override {
    throw std::logic_error("CaptureSolver records stamps; it cannot factor");
  }
  void solve_in_place(std::span<double> /*b*/) override {
    throw std::logic_error("CaptureSolver records stamps; it cannot solve");
  }
  double diagonal_ratio() const override { return 0.0; }
  void invalidate_structure() override {}
  const linalg::SolverStats& stats() const override { return stats_; }

  const std::vector<linalg::MatrixEntry>& entries() const { return entries_; }

 private:
  std::size_t n_;
  std::vector<linalg::MatrixEntry> entries_;
  linalg::SolverStats stats_;
};

}  // namespace

SparsityResult run_sparsity(Circuit& circuit) {
  SparsityResult result;
  circuit.finalize();  // allocate branch unknowns, as solve_dc does
  const std::size_t n = circuit.num_unknowns();
  result.unknowns = n;
  if (n == 0) return result;

  CaptureSolver capture(n);
  std::vector<double> rhs(n, 0.0);
  std::vector<double> x(n, 0.0);
  const NewtonOptions defaults;

  // Replicate solve_dc's first assembly: reset per-point device state so
  // the capture neither sees nor leaves junction-limiting history, then
  // stamp the zero iterate in DC context.
  capture.begin_assembly();
  for (const auto& dev : circuit.devices()) dev->start_step(0.0, 0.0);
  StampContext ctx{capture,
                   rhs,
                   x,
                   /*time=*/0.0,
                   /*dt=*/0.0,
                   Integrator::kBackwardEuler,
                   /*dc=*/true,
                   defaults.gmin,
                   /*source_scale=*/1.0,
                   /*limited=*/false};
  for (const auto& dev : circuit.devices()) dev->stamp(ctx);
  for (std::size_t i = 0; i < circuit.num_nodes(); ++i) {
    capture.add(static_cast<int>(i), static_cast<int>(i), defaults.gshunt);
  }

  result.prediction = linalg::predict_sparse_factor(n, capture.entries());
  return result;
}

}  // namespace ironic::spice::analysis::detail
