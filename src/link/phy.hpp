// LinkPhy: the pluggable physical layer behind the fault/fleet stack.
//
// The paper's remote-powering chain is one physical layer — a 5 MHz
// inductive link with ASK downlink and LSK backscatter uplink — and that
// assumption used to be baked into src/fault/plant.hpp (LinkBudget held
// a magnetics::InductiveLink by value; the nominal rate/drive/load/
// cadence were free constants). LinkPhy factors the physical layer out:
// a backend models power transfer vs. distance/alignment/tissue, the
// modulation wrappers for each direction, and the BER the session's
// rate ladder plays against. Everything above it — FaultInjector,
// campaigns, FleetService cohorts, the runners — dispatches through
// this interface, so rival stacks (the magnetoelectric transducer with
// PWM backscatter of arXiv 2412.02499, and any future backend) run
// under the *same* session/fault/campaign/fleet machinery and their
// resilience and energy numbers are directly comparable.
//
// Contract for backend authors (pinned by tests/link_test.cpp):
//   * power_delivered(c) is monotonically non-increasing in c.distance
//     and in c.lateral_offset from the nominal condition outward;
//   * efficiency(c) is in [0, 1];
//   * bit_error_rate(p, s, rate) is monotonically non-decreasing in
//     `rate` at fixed power (energy per bit shrinks) and lands in
//     [0, 0.5];
//   * power_delivered(nominal_condition()) == nominal_power();
//   * power_delivered is a pure function of its LinkCondition:
//     fault::LinkBudget memoizes the last condition and its power under
//     a bit-exact key, so an answer that also depended on call history,
//     a clock or an RNG would be served stale;
//   * the wrap_* hooks must be deterministic pass-through codecs: any
//     randomness belongs to the caller's channel, never the backend
//     (thread-count invariance of every campaign depends on it).
//
// Determinism: a backend must not keep hidden mutable state across
// power_delivered calls beyond the geometry it was just given — two
// backends constructed with the same spec must produce bit-identical
// trajectories when driven with the same call sequence. make_backend
// hands out copies of one prototype, so a backend must also be
// copyable, and a copy must answer what a freshly constructed backend
// would.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/comms/protocol.hpp"

namespace ironic::link {

// The nominal operating point a backend is tuned for. Hoisted from the
// free constants of src/fault/plant.hpp so a backend's BER model and
// its nominal numbers can never silently disagree.
struct NominalProfile {
  double rate_bps = 100e3;   // downlink bit rate at the nominal point
  double drive_v = 3.5;      // rectifier input amplitude at nominal [V]
  double load_ohms = 150.0;  // rectifier input impedance scale
  double cadence_s = 0.25;   // [s] between measurements
  double carrier_hz = 5e6;   // power/data carrier
};

// Instantaneous link geometry, the injector-perturbed quantities every
// backend maps onto its own physics (coil separation for the inductive
// link, implant depth for the ME transducer, ...).
struct LinkCondition {
  double distance = 0.0;        // [m] transmitter-to-implant separation
  double lateral_offset = 0.0;  // [m] misalignment in the coil/field plane
  // Tissue slab thickness [m]; nullopt = the backend's configured medium.
  std::optional<double> tissue_thickness;
};

class LinkPhy {
 public:
  virtual ~LinkPhy() = default;

  // Registry name ("inductive", "me", ...), stable across releases: it
  // keys --link on the runners, cohort profiles, and link.* telemetry.
  virtual const char* name() const = 0;

  virtual const NominalProfile& nominal() const = 0;

  // The unperturbed geometry (what the FaultInjector's base values are).
  virtual LinkCondition nominal_condition() const = 0;

  // Power delivered into the nominal load at the nominal condition [W].
  virtual double nominal_power() const = 0;

  // Power transfer at `condition` into the nominal load [W].
  virtual double power_delivered(const LinkCondition& condition) = 0;

  // Delivered / drawn at `condition`, in [0, 1].
  virtual double efficiency(const LinkCondition& condition) = 0;

  // Physical BER at `rate` given delivered power and the receiver
  // sensitivity: snr scales with power and inversely with bit rate, so
  // the session's rate ladder buys back margin a fault took away.
  virtual double bit_error_rate(double power, double sensitivity,
                                double rate) const = 0;

  // Implant drive amplitude for the delivered power [V] — the backend's
  // compensation law (how hard the patch can fight a weakened link).
  // Overvoltage faults scale the result outside, in fault::LinkBudget.
  virtual double drive_amplitude(double power) const = 0;

  // Modulation hooks: wrap the (already fault-wrapped) bit channel in
  // the backend's line codec for each direction. The default is the
  // transparent pass-through of the native ASK/LSK chain; the ME
  // backend encodes the uplink as PWM duty-cycle chips.
  virtual comms::Channel wrap_downlink(comms::Channel inner) const {
    return inner;
  }
  virtual comms::Channel wrap_uplink(comms::Channel inner) const {
    return inner;
  }

  // Human-readable modulation labels for reports and examples.
  virtual const char* downlink_modulation() const = 0;
  virtual const char* uplink_modulation() const = 0;
};

// --- backend registry -------------------------------------------------------

// Registered backend names, in registration order ({"inductive", "me"}).
std::vector<std::string> backend_names();
bool is_backend(const std::string& name);

// One line per backend for --help and --list style output.
std::string backend_summary();

// The named backend: a copy of a prototype built once per process, on
// the first call for that name, so the backend's constructor runs once.
// Throws std::invalid_argument on an unknown name.
std::unique_ptr<LinkPhy> make_backend(const std::string& name);

// The named backend's nominal profile without paying for construction
// (backends may solve their physics in the constructor). Throws
// std::invalid_argument on an unknown name.
const NominalProfile& nominal_profile(const std::string& name);

}  // namespace ironic::link
