#include "src/magnetics/link.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/magnetics/coupling.hpp"
#include "src/util/constants.hpp"

namespace ironic::magnetics {

using constants::kTwoPi;

InductiveLink::InductiveLink(LinkConfig config)
    : config_(std::move(config)), tx_(config_.tx), rx_(config_.rx) {
  if (config_.frequency <= 0.0) {
    throw std::invalid_argument("InductiveLink: frequency must be > 0");
  }
  recompute();
}

void InductiveLink::recompute() {
  mutual_ = mutual_inductance(tx_, rx_, config_.distance, config_.lateral_offset);
  coupling_ = mutual_ / std::sqrt(tx_.inductance() * rx_.inductance());
}

double InductiveLink::tx_tuning_capacitance() const {
  const double omega = kTwoPi * config_.frequency;
  return 1.0 / (omega * omega * tx_.inductance());
}

double InductiveLink::rx_tuning_capacitance() const {
  const double omega = kTwoPi * config_.frequency;
  return 1.0 / (omega * omega * rx_.inductance());
}

LinkAnalysis InductiveLink::analyze(double drive_amplitude, double load_resistance) const {
  if (load_resistance <= 0.0) {
    throw std::invalid_argument("InductiveLink::analyze: load must be > 0");
  }
  const double omega = kTwoPi * config_.frequency;
  const double r1 = tx_.ac_resistance(config_.frequency);
  const double r2 = rx_.ac_resistance(config_.frequency);

  // Series-series tuning: both reactances cancel at the carrier; what is
  // left is the resistive mesh with the reflected secondary impedance.
  const std::complex<double> z2(r2 + load_resistance, 0.0);
  const double om2 = omega * mutual_;
  const std::complex<double> z_reflected = om2 * om2 / z2;

  // Tissue eddy loss appears as extra series resistance in the primary.
  double r_tissue = 0.0;
  if (config_.tissue.has_value()) {
    r_tissue = config_.tissue->reflected_resistance(config_.frequency,
                                                    tx_.equivalent_radius());
  }
  const std::complex<double> z1 = std::complex<double>(r1 + r_tissue, 0.0) + z_reflected;

  LinkAnalysis out;
  out.coupling = coupling_;
  out.mutual = mutual_;
  out.i_primary = drive_amplitude / z1;
  out.i_secondary = std::complex<double>(0.0, om2) * out.i_primary / z2;
  out.power_in = 0.5 * drive_amplitude * out.i_primary.real();

  double p_load = 0.5 * std::norm(out.i_secondary) * load_resistance;
  // Field attenuation through the slab reduces the flux linking the
  // secondary; apply it to the delivered power.
  if (config_.tissue.has_value()) {
    p_load *= config_.tissue->power_attenuation(config_.frequency);
  }
  out.power_delivered = p_load;
  out.efficiency = out.power_in > 0.0 ? p_load / out.power_in : 0.0;
  return out;
}

double InductiveLink::optimal_load_resistance() const {
  const double r2 = rx_.ac_resistance(config_.frequency);
  const double q1 = tx_.quality_factor(config_.frequency);
  const double q2 = rx_.quality_factor(config_.frequency);
  return r2 * std::sqrt(1.0 + coupling_ * coupling_ * q1 * q2);
}

double InductiveLink::drive_for_power(double target_power, double load_resistance) const {
  if (target_power <= 0.0) {
    throw std::invalid_argument("InductiveLink::drive_for_power: target must be > 0");
  }
  // Delivered power scales with the square of the drive amplitude.
  const double probe = 1.0;
  const LinkAnalysis at_probe = analyze(probe, load_resistance);
  if (at_probe.power_delivered <= 0.0) {
    throw std::runtime_error("InductiveLink::drive_for_power: link delivers no power");
  }
  return probe * std::sqrt(target_power / at_probe.power_delivered);
}

void InductiveLink::set_placement(double distance, double offset) {
  if (!std::isfinite(distance) || !std::isfinite(offset)) {
    throw std::invalid_argument("InductiveLink: placement must be finite");
  }
  if (distance <= 0.0) throw std::invalid_argument("InductiveLink: distance must be > 0");
  // k and M depend on the placement alone (the coils are fixed), so the
  // placement already held, bit for bit, keeps them.
  if (std::bit_cast<std::uint64_t>(distance) ==
          std::bit_cast<std::uint64_t>(config_.distance) &&
      std::bit_cast<std::uint64_t>(offset) ==
          std::bit_cast<std::uint64_t>(config_.lateral_offset)) {
    return;
  }
  config_.distance = distance;
  config_.lateral_offset = offset;
  recompute();
}

void InductiveLink::set_distance(double distance) {
  set_placement(distance, config_.lateral_offset);
}

void InductiveLink::set_lateral_offset(double offset) {
  set_placement(config_.distance, offset);
}

void InductiveLink::set_tissue(std::optional<TissueSlab> tissue) {
  config_.tissue = std::move(tissue);
}

spice::CoupledInductors& InductiveLink::add_to_circuit(
    spice::Circuit& circuit, const std::string& name, spice::NodeId tx_a,
    spice::NodeId tx_b, spice::NodeId rx_a, spice::NodeId rx_b) const {
  double r1 = tx_.ac_resistance(config_.frequency);
  if (config_.tissue.has_value()) {
    r1 += config_.tissue->reflected_resistance(config_.frequency,
                                               tx_.equivalent_radius());
  }
  // The slab's field attenuation maps onto an effective coupling
  // reduction in the time-domain model.
  double k_eff = coupling_;
  if (config_.tissue.has_value()) {
    k_eff *= config_.tissue->field_attenuation(config_.frequency);
  }
  return circuit.add<spice::CoupledInductors>(
      name, tx_a, tx_b, rx_a, rx_b, tx_.inductance(), rx_.inductance(), k_eff, r1,
      rx_.ac_resistance(config_.frequency));
}

}  // namespace ironic::magnetics
