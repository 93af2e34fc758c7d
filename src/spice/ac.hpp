// AC (small-signal) analysis: linearize every device at the DC operating
// point and solve the complex MNA system over a frequency sweep.
//
// Used to verify the link tuning (series resonance at 5 MHz), the CA/CB
// matching network, and amplifier transfer functions — the frequency-
// domain complement of the transient engine.
//
// The operating point comes from solve_dc (validated, with its full
// Newton / gmin-stepping / source-stepping ladder) unless the caller
// supplies one. The linearized stamps keep the engine's constants: every
// junction and channel its kGmin floor, every node its kGshunt leak.
#pragma once

#include <complex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/linalg/complex_matrix.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/engine.hpp"

namespace ironic::spice {

struct AcOptions {
  double f_start = 1e3;
  double f_stop = 1e9;
  int points_per_decade = 20;
  bool log_sweep = true;
  int linear_points = 100;  // used when log_sweep == false
  // Compute the operating point first (needed when nonlinear devices are
  // present); disable for purely linear networks with no DC excitation.
  bool use_operating_point = true;
  // Non-empty: linearize at this caller-supplied operating point (full
  // unknown vector, node voltages then branch currents) instead of
  // running solve_dc — the escape hatch for circuits whose bias point
  // only settles dynamically (e.g. the LDO and potentiostat loops; take
  // the final state of a settling transient).
  std::vector<double> operating_point;
};

class AcResult {
 public:
  AcResult() = default;
  AcResult(std::vector<std::string> names, std::vector<double> frequencies);

  void set_point(std::size_t freq_index, std::span<const linalg::Complex> x);

  const std::vector<double>& frequency() const { return frequencies_; }
  std::size_t num_points() const { return frequencies_.size(); }
  bool has_signal(const std::string& name) const;

  // Full complex response of a signal across the sweep.
  std::span<const linalg::Complex> signal(const std::string& name) const;
  // |H| and phase at one sweep index.
  double magnitude(const std::string& name, std::size_t index) const;
  double magnitude_db(const std::string& name, std::size_t index) const;
  double phase_deg(const std::string& name, std::size_t index) const;
  // Magnitude across the whole sweep.
  std::vector<double> magnitude(const std::string& name) const;

  // Frequency of the magnitude peak.
  double peak_frequency(const std::string& name) const;
  // First frequency (interpolated in log f) where the magnitude falls
  // `drop_db` below its peak, searching upward from the peak. Returns
  // false if it never does within the sweep.
  bool upper_corner_frequency(const std::string& name, double drop_db,
                              double& f_out) const;

 private:
  std::size_t column(const std::string& name) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<double> frequencies_;
  std::vector<std::vector<linalg::Complex>> data_;  // [signal][freq]
};

// Run the sweep. Throws std::logic_error if a device lacks an AC model
// and ConvergenceError if the operating point cannot be found.
AcResult run_ac(Circuit& circuit, const AcOptions& options = {});

// Input impedance seen by a (unit-AC) voltage source: -V/I at its branch.
// `source_name` must be a VoltageSource with set_ac(1.0).
std::vector<linalg::Complex> input_impedance(const AcResult& result,
                                             const std::string& source_name);

}  // namespace ironic::spice
