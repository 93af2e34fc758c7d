// The inductive power/data link of the paper: patch coil -> (tissue) ->
// implant coil, with series-series resonant tuning at the 5 MHz carrier.
//
// Provides phasor (steady-state) analysis for the power sweeps and a
// netlist exporter for the transistor-level transient simulations.
#pragma once

#include <complex>
#include <optional>
#include <string>

#include "src/magnetics/coil.hpp"
#include "src/magnetics/tissue.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_passive.hpp"

namespace ironic::magnetics {

struct LinkConfig {
  CoilSpec tx = patch_coil_spec();
  CoilSpec rx = implant_coil_spec();
  double distance = 6e-3;          // face-to-face coil separation [m]
  double lateral_offset = 0.0;     // misalignment [m]
  double frequency = 5e6;          // carrier [Hz]
  std::optional<TissueSlab> tissue;  // nullopt = air
};

// Steady-state operating point of the tuned link.
struct LinkAnalysis {
  double coupling = 0.0;            // k
  double mutual = 0.0;              // M [H]
  std::complex<double> i_primary;   // primary current phasor [A]
  std::complex<double> i_secondary; // secondary current phasor [A]
  double power_in = 0.0;            // average power drawn from the source [W]
  double power_delivered = 0.0;     // average power into the load [W]
  double efficiency = 0.0;          // delivered / in
};

class InductiveLink {
 public:
  explicit InductiveLink(LinkConfig config);

  const LinkConfig& config() const { return config_; }
  const Coil& tx_coil() const { return tx_; }
  const Coil& rx_coil() const { return rx_; }

  double coupling() const { return coupling_; }
  double mutual() const { return mutual_; }
  // Series resonance capacitors that tune each winding to the carrier.
  double tx_tuning_capacitance() const;
  double rx_tuning_capacitance() const;

  // Phasor analysis of the series-series tuned link driven by a sine of
  // the given amplitude into the given load resistance.
  LinkAnalysis analyze(double drive_amplitude, double load_resistance) const;

  // Load resistance maximizing link efficiency (classic k-Q expression).
  double optimal_load_resistance() const;

  // Drive amplitude needed to deliver `target_power` into `load` [V].
  double drive_for_power(double target_power, double load_resistance) const;

  // Reconfigure the geometry (retunes k and M). set_placement moves both
  // coordinates with one mutual-inductance solve, or none when both are
  // bit for bit the ones held; it throws std::invalid_argument on a
  // non-finite input or a distance <= 0. The single-coordinate setters
  // are shorthands for it.
  void set_placement(double distance, double offset);
  void set_distance(double distance);
  void set_lateral_offset(double offset);
  void set_tissue(std::optional<TissueSlab> tissue);

  // Instantiate the link as coupled inductors (with ESR) between the
  // given node pairs of a transient netlist. Returns the device.
  spice::CoupledInductors& add_to_circuit(spice::Circuit& circuit,
                                          const std::string& name,
                                          spice::NodeId tx_a, spice::NodeId tx_b,
                                          spice::NodeId rx_a, spice::NodeId rx_b) const;

 private:
  void recompute();

  LinkConfig config_;
  Coil tx_;
  Coil rx_;
  double coupling_ = 0.0;
  double mutual_ = 0.0;
};

}  // namespace ironic::magnetics
