#include "src/linalg/solver.hpp"

#include "src/linalg/sparse.hpp"

namespace ironic::linalg {

std::unique_ptr<LinearSolver> make_solver(std::size_t n) {
  return std::make_unique<SparseSolver<double>>(n);
}

std::unique_ptr<ComplexLinearSolver> make_complex_solver(std::size_t n) {
  return std::make_unique<SparseSolver<Complex>>(n);
}

}  // namespace ironic::linalg
