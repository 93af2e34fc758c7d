#include "src/magnetics/coupling.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/magnetics/elliptic.hpp"
#include "src/util/constants.hpp"

namespace ironic::magnetics {

using constants::kMu0;
using constants::kTwoPi;

double mutual_coaxial_filaments(double a, double b, double d) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("mutual_coaxial_filaments: radii must be > 0");
  }
  const double denom = (a + b) * (a + b) + d * d;
  const double kappa = std::sqrt(4.0 * a * b / denom);
  if (kappa >= 1.0) {
    throw std::invalid_argument("mutual_coaxial_filaments: degenerate geometry");
  }
  const double kk = elliptic_k(kappa);
  const double ee = elliptic_e(kappa);
  return kMu0 * std::sqrt(a * b) *
         ((2.0 / kappa - kappa) * kk - (2.0 / kappa) * ee);
}

namespace {

// The trapezoid nodes of an n-point rule: cos/sin of each node angle and
// cos(t_i - s_j) for every node pair. Each entry is the expression a
// direct double loop evaluates inline (t = i * h, s = j * h,
// std::cos(t - s)), and neumann_sum keeps that loop's arithmetic and
// summation order, so the tabulated sum is bit-identical to the direct
// one (the NeumannKernel tests compare the two with memcmp).
struct NeumannTable {
  explicit NeumannTable(int points);

  int n;
  double h;
  std::vector<double> cos_node;
  std::vector<double> sin_node;
  std::vector<double> cos_diff;  // row-major [i * n + j]
};

NeumannTable::NeumannTable(int points)
    : n(points),
      h(kTwoPi / points),
      cos_node(static_cast<std::size_t>(points)),
      sin_node(static_cast<std::size_t>(points)),
      cos_diff(static_cast<std::size_t>(points) * static_cast<std::size_t>(points)) {
  for (int i = 0; i < n; ++i) {
    const double t = i * h;
    cos_node[i] = std::cos(t);
    sin_node[i] = std::sin(t);
    for (int j = 0; j < n; ++j) {
      const double s = j * h;
      cos_diff[static_cast<std::size_t>(i) * n + j] = std::cos(t - s);
    }
  }
}

// Built on the first offset query, never at load time; C++ guarantees the
// concurrent first callers see one fully constructed table.
const NeumannTable& coil_rule_table() {
  static const NeumannTable table(kCoilQuadraturePoints);
  return table;
}

// Neumann formula over the two loop angles; both integrands are periodic,
// so the trapezoid rule converges spectrally.
double neumann_sum(const NeumannTable& table, double a, double b, double d,
                   double rho) {
  const int n = table.n;
  const double dd = d * d;
  std::vector<double> x2(static_cast<std::size_t>(n));
  std::vector<double> y2(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    x2[j] = rho + b * table.cos_node[j];
    y2[j] = b * table.sin_node[j];
  }
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x1 = a * table.cos_node[i];
    const double y1 = a * table.sin_node[i];
    const double* cos_diff = &table.cos_diff[static_cast<std::size_t>(i) * n];
    for (int j = 0; j < n; ++j) {
      const double dx = x2[j] - x1;
      const double dy = y2[j] - y1;
      const double r = std::sqrt(dx * dx + dy * dy + dd);
      sum += cos_diff[j] / r;
    }
  }
  return kMu0 / (4.0 * constants::kPi) * a * b * sum * table.h * table.h;
}

}  // namespace

double mutual_filaments(double a, double b, double d, double rho,
                        int quadrature_points) {
  if (std::abs(rho) < 1e-12) return mutual_coaxial_filaments(a, b, d);
  if (quadrature_points < 8) {
    throw std::invalid_argument("mutual_filaments: too few quadrature points");
  }
  if (quadrature_points == kCoilQuadraturePoints) {
    return neumann_sum(coil_rule_table(), a, b, d, rho);
  }
  return neumann_sum(NeumannTable(quadrature_points), a, b, d, rho);
}

double mutual_inductance(const Coil& tx, const Coil& rx, double distance,
                         double lateral_offset) {
  if (distance <= 0.0) {
    throw std::invalid_argument("mutual_inductance: distance must be > 0");
  }
  double total = 0.0;
  for (const auto& f1 : tx.filaments()) {
    for (const auto& f2 : rx.filaments()) {
      const double d = distance + f1.z + f2.z;
      // Coaxial path is exact and fast; the offset path integrates Neumann.
      total += std::abs(lateral_offset) < 1e-12
                   ? mutual_coaxial_filaments(f1.radius, f2.radius, d)
                   : mutual_filaments(f1.radius, f2.radius, d, lateral_offset,
                                      kCoilQuadraturePoints);
    }
  }
  return total;
}

double coupling_coefficient(const Coil& tx, const Coil& rx, double distance,
                            double lateral_offset) {
  const double m = mutual_inductance(tx, rx, distance, lateral_offset);
  return m / std::sqrt(tx.inductance() * rx.inductance());
}

}  // namespace ironic::magnetics
