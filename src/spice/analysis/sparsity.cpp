// Sparsity / fill pass.
//
// Stamps the exact assembly the engine's first DC Newton iteration would
// produce — same device order, same start_step(0, 0) reset, same zero
// iterate, gmin, source scale, and unconditional gshunt diagonals — into
// a fresh linalg::SparseSolver and factors it once. The counts reported
// are the backend's own: its merged pattern, its L+U fill and a walk over
// the factor it holds. Nothing is solved.
#include <vector>

#include "src/linalg/sparse.hpp"
#include "src/spice/analysis/passes.hpp"
#include "src/spice/circuit.hpp"

namespace ironic::spice::analysis::detail {

SparsityResult run_sparsity(Circuit& circuit) {
  SparsityResult result;
  circuit.finalize();  // allocate branch unknowns, as solve_dc does
  const std::size_t n = circuit.num_unknowns();
  result.unknowns = n;
  if (n == 0) return result;

  linalg::SparseSolver<double> solver(n);
  std::vector<double> rhs(n, 0.0);
  std::vector<double> x(n, 0.0);

  // Replicate solve_dc's first assembly: reset per-point device state so
  // the pass neither sees nor leaves junction-limiting history, then
  // stamp the zero iterate in DC context.
  solver.begin_assembly();
  for (Device* dev : circuit.start_step_devices()) dev->start_step(0.0, 0.0);
  StampContext ctx{solver,
                   rhs,
                   x,
                   /*time=*/0.0,
                   /*dt=*/0.0,
                   Integrator::kBackwardEuler,
                   /*dc=*/true,
                   /*source_scale=*/1.0,
                   /*limited=*/false};
  for (const auto& dev : circuit.devices()) dev->stamp(ctx);
  for (std::size_t i = 0; i < circuit.num_nodes(); ++i) {
    solver.add(static_cast<int>(i), static_cast<int>(i), kGshunt);
  }

  FactorPrediction& p = result.prediction;
  try {
    solver.factor();
  } catch (const linalg::SingularMatrixError&) {
    p.singular = true;
  }
  p.pattern_nnz = solver.pattern_nnz();
  p.factor_nnz = solver.stats().factor_nnz;
  p.factor_flops = solver.factor_flops();
  // Forward and back substitution: a multiply-add per off-diagonal L+U
  // entry and a divide per pivot.
  p.solve_flops = 2.0 * static_cast<double>(p.factor_nnz) - static_cast<double>(n);
  return result;
}

}  // namespace ironic::spice::analysis::detail
