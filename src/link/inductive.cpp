#include "src/link/inductive.hpp"

#include <algorithm>
#include <cmath>

#include "src/magnetics/tissue.hpp"

namespace ironic::link {

InductiveAskLsk::InductiveAskLsk() : link_(magnetics::LinkConfig{}) {
  drive_ = link_.drive_for_power(15e-3, kInductiveNominal.load_ohms);
  p_nominal_ =
      link_.analyze(drive_, kInductiveNominal.load_ohms).power_delivered;
}

LinkCondition InductiveAskLsk::nominal_condition() const {
  LinkCondition condition;
  condition.distance = magnetics::LinkConfig{}.distance;
  condition.lateral_offset = 0.0;
  return condition;
}

void InductiveAskLsk::apply(const LinkCondition& condition) {
  link_.set_placement(condition.distance, condition.lateral_offset);
  if (condition.tissue_thickness.has_value()) {
    link_.set_tissue(magnetics::TissueSlab(magnetics::sirloin_properties(),
                                           *condition.tissue_thickness));
  } else {
    link_.set_tissue(std::nullopt);
  }
}

double InductiveAskLsk::power_delivered(const LinkCondition& condition) {
  apply(condition);
  return link_.analyze(drive_, kInductiveNominal.load_ohms).power_delivered;
}

double InductiveAskLsk::efficiency(const LinkCondition& condition) {
  apply(condition);
  return link_.analyze(drive_, kInductiveNominal.load_ohms).efficiency;
}

double InductiveAskLsk::bit_error_rate(double power, double sensitivity,
                                       double rate) const {
  const double snr =
      std::max(0.0, power / sensitivity) * (kInductiveNominal.rate_bps / rate);
  return 0.5 * std::erfc(std::sqrt(snr));
}

double InductiveAskLsk::drive_amplitude(double power) const {
  // The patch partially compensates a weakened link (floor at 0.6 of
  // nominal — it cannot boost indefinitely).
  const double compensation =
      std::clamp(std::sqrt(std::max(0.0, power) / p_nominal_), 0.6, 1.0);
  return kInductiveNominal.drive_v * compensation;
}

}  // namespace ironic::link
