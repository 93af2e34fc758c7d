#include "src/spice/ac.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/constants.hpp"

namespace ironic::spice {

AcResult::AcResult(std::vector<std::string> names, std::vector<double> frequencies)
    : names_(std::move(names)), frequencies_(std::move(frequencies)) {
  data_.assign(names_.size(), std::vector<linalg::Complex>(frequencies_.size()));
  for (std::size_t i = 0; i < names_.size(); ++i) index_.emplace(names_[i], i);
}

void AcResult::set_point(std::size_t freq_index, std::span<const linalg::Complex> x) {
  if (x.size() != names_.size()) {
    throw std::invalid_argument("AcResult::set_point: size mismatch");
  }
  for (std::size_t s = 0; s < names_.size(); ++s) data_[s][freq_index] = x[s];
}

bool AcResult::has_signal(const std::string& name) const {
  return index_.count(name) > 0;
}

std::size_t AcResult::column(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::invalid_argument("AcResult: unknown signal '" + name + "'");
  }
  return it->second;
}

std::span<const linalg::Complex> AcResult::signal(const std::string& name) const {
  return data_[column(name)];
}

double AcResult::magnitude(const std::string& name, std::size_t index) const {
  return std::abs(data_[column(name)].at(index));
}

double AcResult::magnitude_db(const std::string& name, std::size_t index) const {
  return 20.0 * std::log10(std::max(magnitude(name, index), 1e-300));
}

double AcResult::phase_deg(const std::string& name, std::size_t index) const {
  return std::arg(data_[column(name)].at(index)) * 180.0 / constants::kPi;
}

std::vector<double> AcResult::magnitude(const std::string& name) const {
  const auto& col = data_[column(name)];
  std::vector<double> out(col.size());
  for (std::size_t i = 0; i < col.size(); ++i) out[i] = std::abs(col[i]);
  return out;
}

double AcResult::peak_frequency(const std::string& name) const {
  const auto mags = magnitude(name);
  const auto it = std::max_element(mags.begin(), mags.end());
  return frequencies_.at(static_cast<std::size_t>(it - mags.begin()));
}

bool AcResult::upper_corner_frequency(const std::string& name, double drop_db,
                                      double& f_out) const {
  const auto mags = magnitude(name);
  const auto peak_it = std::max_element(mags.begin(), mags.end());
  const double threshold = *peak_it * std::pow(10.0, -drop_db / 20.0);
  for (std::size_t i = static_cast<std::size_t>(peak_it - mags.begin()) + 1;
       i < mags.size(); ++i) {
    if (mags[i] <= threshold) {
      // Log-frequency interpolation between i-1 and i.
      const double m0 = mags[i - 1];
      const double m1 = mags[i];
      const double t = (m0 - threshold) / (m0 - m1);
      const double lf0 = std::log10(frequencies_[i - 1]);
      const double lf1 = std::log10(frequencies_[i]);
      f_out = std::pow(10.0, lf0 + t * (lf1 - lf0));
      return true;
    }
  }
  return false;
}

AcResult run_ac(Circuit& circuit, const AcOptions& options) {
  if (options.f_start <= 0.0 || options.f_stop <= options.f_start) {
    throw std::invalid_argument("run_ac: need 0 < f_start < f_stop");
  }
  circuit.finalize();
  const std::size_t n = circuit.num_unknowns();

  // Operating point for the linearization.
  std::vector<double> op(n, 0.0);
  if (!options.operating_point.empty()) {
    if (options.operating_point.size() != n) {
      throw std::invalid_argument("run_ac: operating_point size mismatch");
    }
    op = options.operating_point;
  } else if (options.use_operating_point) {
    const DcResult dc = solve_dc(circuit);
    if (!dc.converged) {
      throw ConvergenceError("run_ac: DC operating point failed to converge");
    }
    op = dc.x;
    circuit.finalize();
  }

  // Frequency grid.
  std::vector<double> freqs;
  if (options.log_sweep) {
    const double decades = std::log10(options.f_stop / options.f_start);
    const int total = std::max(2, static_cast<int>(
                                      std::ceil(decades * options.points_per_decade)) + 1);
    for (int i = 0; i < total; ++i) {
      freqs.push_back(options.f_start *
                      std::pow(10.0, decades * i / (total - 1)));
    }
  } else {
    const int total = std::max(2, options.linear_points);
    for (int i = 0; i < total; ++i) {
      freqs.push_back(options.f_start +
                      (options.f_stop - options.f_start) * i / (total - 1));
    }
  }

  AcResult result(circuit.signal_names(), freqs);
  // The AC pattern is frequency-invariant, so every frequency after the
  // first is a numeric-only refactorization.
  linalg::SparseSolver<linalg::Complex>& solver = circuit.acquire_complex_solver();
  linalg::CVector rhs(n);
  linalg::CVector x(n);

  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double omega = constants::kTwoPi * freqs[fi];
    solver.begin_assembly();
    std::fill(rhs.begin(), rhs.end(), linalg::Complex{0.0, 0.0});
    AcStampContext ctx{solver, rhs, op, omega};
    for (const auto& dev : circuit.devices()) dev->stamp_ac(ctx);
    // Regularizing shunt, the same kGshunt the transient engine stamps.
    for (std::size_t i = 0; i < circuit.num_nodes(); ++i) {
      solver.add(static_cast<int>(i), static_cast<int>(i), {kGshunt, 0.0});
    }
    solver.factor();
    x = rhs;
    solver.solve_in_place(x);
    result.set_point(fi, x);
  }
  return result;
}

std::vector<linalg::Complex> input_impedance(const AcResult& result,
                                             const std::string& source_name) {
  const auto i_branch = result.signal("i(" + source_name + ")");
  std::vector<linalg::Complex> z(i_branch.size());
  for (std::size_t k = 0; k < i_branch.size(); ++k) {
    // Source convention: delivering current is negative at the branch;
    // with a 1 V AC stimulus, Zin = V / (-I).
    z[k] = i_branch[k] == linalg::Complex{0.0, 0.0}
               ? linalg::Complex{1e300, 0.0}
               : linalg::Complex{1.0, 0.0} / (-i_branch[k]);
  }
  return z;
}

}  // namespace ironic::spice
