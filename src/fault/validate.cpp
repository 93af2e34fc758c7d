#include "src/fault/validate.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ironic::fault {
namespace {

// Physical domain of each kind's magnitude (see FaultKind comments in
// schedule.hpp). Geometry kinds are metres on an implant-scale link, so
// anything past ~1 m separation (0.5 m of tissue) is a unit mistake,
// not a pessimistic scenario.
const char* magnitude_problem(FaultKind kind, double m) {
  if (!std::isfinite(m)) return "magnitude must be finite";
  switch (kind) {
    case FaultKind::kCouplingStep:
      if (m <= 0.0 || m > 1.0) return "coil separation must be in (0, 1] m";
      break;
    case FaultKind::kMisalignment:
      if (m < 0.0 || m > 1.0) return "lateral offset must be in [0, 1] m";
      break;
    case FaultKind::kTissueDrift:
      if (m < 0.0 || m > 0.5) return "tissue thickness must be in [0, 0.5] m";
      break;
    case FaultKind::kBitFlip:
      if (m < 0.0 || m > 1.0) return "flip probability must be in [0, 1]";
      break;
    case FaultKind::kBurstError:
      if (m < 0.0) return "burst length must be >= 0 bits";
      break;
    case FaultKind::kOvervoltage:
      if (m <= 1.0 || m > 10.0) {
        return "drive scale must be in (1, 10] (values <= 1 are not an "
               "overvoltage)";
      }
      break;
    case FaultKind::kLdoDropout:
      if (m <= 0.0 || m >= 1.0) {
        return "rail scale must be in (0, 1) (values >= 1 are not a sag)";
      }
      break;
    case FaultKind::kBrownout:
      if (m <= 0.0 || m > 1.0) return "charge fraction must be in (0, 1]";
      break;
  }
  return nullptr;
}

}  // namespace

std::string PlanReport::to_text() const {
  std::ostringstream os;
  for (const auto& issue : issues) {
    os << issue.code << " (event " << issue.event << "): " << issue.message
       << "\n";
  }
  return os.str();
}

PlanReport validate_schedule(const FaultSchedule& schedule,
                             const PlanContext& context) {
  PlanReport report;
  const auto& events = schedule.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string what = std::string(fault_kind_name(e.kind));

    if (!std::isfinite(e.start) || e.start < 0.0 ||
        !std::isfinite(e.duration)) {
      report.issues.push_back(
          {"plan.bad-window", i,
           what + " window [start " + std::to_string(e.start) + ", duration " +
               std::to_string(e.duration) + "] is not a usable time window"});
      continue;  // window garbage makes the horizon check meaningless
    }
    if (context.horizon > 0.0 && e.start >= context.horizon) {
      report.issues.push_back(
          {"plan.after-horizon", i,
           what + " starts at " + std::to_string(e.start) +
               " s, at or past the scenario horizon of " +
               std::to_string(context.horizon) + " s -- it would never fire"});
    }
    if (const char* problem = magnitude_problem(e.kind, e.magnitude)) {
      report.issues.push_back(
          {"plan.bad-magnitude", i,
           what + " magnitude " + std::to_string(e.magnitude) + ": " + problem});
      continue;  // reachability needs a sane magnitude first
    }
    if (e.kind == FaultKind::kOvervoltage && context.envelope_vmax > 0.0 &&
        context.overvoltage_limit > 0.0 &&
        e.magnitude * context.envelope_vmax <= context.overvoltage_limit) {
      report.issues.push_back(
          {"plan.overvoltage-unreachable", i,
           "scale " + std::to_string(e.magnitude) + " x envelope peak " +
               std::to_string(context.envelope_vmax) +
               " V stays at or below the " +
               std::to_string(context.overvoltage_limit) +
               " V rail limit -- the fault cannot be observed"});
    }
  }
  return report;
}

void require_valid_schedule(const FaultSchedule& schedule,
                            const PlanContext& context,
                            const std::string& label) {
  const PlanReport report = validate_schedule(schedule, context);
  if (!report.ok()) {
    throw std::invalid_argument("fault plan '" + label + "' rejected:\n" +
                                report.to_text());
  }
}

}  // namespace ironic::fault
