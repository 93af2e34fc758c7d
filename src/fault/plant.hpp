// The shared end-to-end "patient plant": the LinkPhy backend with
// injector-perturbed geometry, the physical BER model the session rate
// ladder plays against, and the rectifier transient plant whose analog
// state persists between measurements through spice checkpoints.
//
// The patient pipeline (pipeline.hpp) assembles these parts for every
// campaign scenario and fleet session. The plant carries the fleet's
// scaling levers. Its committed operating point is an immutable, shared
// TransientCheckpoint node: `fork_from` adopts a charged-up node
// *without copying it*, so thousands of sessions reference one blob,
// and every measure commits a fresh node instead of overwriting one.
// `capture_charged_checkpoint` produces the shared blob by running the
// ~270 us charge-up transient once. `SegmentMemo` then lets plants that
// sit on the same node and see the same drive share the next segment
// too, and `PlantMemos` bundles it with the bio-impedance memo for a
// fleet service or one campaign call.
//
// Since the LinkPhy refactor the physical layer is pluggable: LinkBudget
// dispatches through a link::LinkPhy backend ("inductive" reproduces the
// pre-refactor pipeline bit-for-bit; "me" swaps in the magnetoelectric
// transducer with PWM backscatter), and the nominal operating point
// lives in the backend's link::NominalProfile instead of free constants.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/fault/bioz.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/memo.hpp"
#include "src/fault/schedule.hpp"
#include "src/link/inductive.hpp"
#include "src/link/phy.hpp"
#include "src/pm/rectifier.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/engine.hpp"

namespace ironic::fault {

// Rectifier input amplitude of the inductive charge-up [V]: the drive
// the shared plant checkpoint is captured at. Per-backend operating
// points live in LinkBudget::nominal() (or link::nominal_profile(name)).
inline constexpr double kNominalDrive = link::kInductiveNominal.drive_v;

// Which sensing front end a scenario/session drives per measurement:
// the spice rectifier + lactate potentiostat plant, its behavioural
// stand-in for long soaks, or the Fricke bio-impedance ladder.
enum class Workload { kLactateSpice, kLactateBehavioural, kBioZ };

const char* workload_name(Workload workload);
// Parses "lactate" / "lactate-behavioural" / "bioz"; false on others.
bool parse_workload(const std::string& text, Workload& out);

pm::RectifierOptions fast_rect_options();

// 12-bit ADC code for a rectifier output voltage clamped to [0, 4] V.
std::uint16_t adc_code(double vo);

// The link budget behind a session: a LinkPhy backend plus the
// injector-perturbed geometry; power feeds the BER model and the
// implant drive amplitude.
struct LinkBudget {
  std::unique_ptr<link::LinkPhy> phy;  // fixed for the budget's lifetime
  double p_nominal = 0.0;
  // Power queries served, and how many of them the memo answered
  // (telemetry only; never fed to fingerprints).
  std::uint64_t power_queries = 0;
  std::uint64_t power_hits = 0;

  // Backend #1, the paper's inductive ASK/LSK chain.
  LinkBudget();
  // Any registered backend by name; throws std::invalid_argument on an
  // unknown one (see link::backend_names()).
  explicit LinkBudget(const std::string& backend);
  explicit LinkBudget(std::unique_ptr<link::LinkPhy> backend);

  const link::NominalProfile& nominal() const { return phy->nominal(); }

  // Delivered power under the injector's current geometry faults [W].
  // Geometry only moves at fault edges, so consecutive queries mostly
  // repeat one condition: the last condition and its power are memoized
  // under a bit-exact key. That is exact because power_delivered is a
  // pure function of its LinkCondition (the LinkPhy contract).
  double power_now(const FaultInjector& injector);

  // Backend compensation law x the injected overvoltage drive scale.
  double drive_amplitude(double power, const FaultInjector& injector) const;

  double bit_error_rate(double power, double sensitivity, double rate) const;

 private:
  std::optional<link::LinkCondition> last_condition_;
  double last_power_ = 0.0;
};

// Tally the continuously-active fault kinds once per executed
// measurement (the comms kinds tally per corrupted frame inside the
// injector's channel wrapper).
void tally_active(FaultInjector& injector, const FaultSchedule& schedule,
                  double t);

// What one RectifierPlant::measure computes from a committed state: the
// node it commits and the settled Vo.
struct Segment {
  std::shared_ptr<const spice::TransientCheckpoint> committed;
  double vo = 0.0;
};

// The committed node's *address* plus the inputs a segment reads (drive
// amplitude, carrier), doubles as their bit patterns.
struct SegmentKey {
  std::uintptr_t parent = 0;  // committed node address (0 = none)
  std::uint64_t amplitude = 0;
  std::uint64_t carrier_hz = 0;

  auto operator<=>(const SegmentKey&) const = default;
};

// An exact memo of RectifierPlant::measure: plants that sit on the same
// committed node and are measured at the same drive simulate that
// segment once. Identity keying is exact because every entry pins its
// parent node: the address cannot be reused while the key exists, and a
// node never changes after it is committed. Inputs outside the key (the
// Newton options, the circuit recipe) are fixed in the code, so an entry
// stays exact for as long as a memo holds it.
using SegmentMemo = ExactMemo<SegmentKey, Segment>;

// Rectifier transient segments spliced at committed checkpoints: the
// implant's analog state persists between measurements. A drive change
// mid-flight (a fault landing inside a segment) discards the segment in
// flight and restarts from the last committed checkpoint; the plant
// counts that restart and simulates only the new segment. Every measure
// runs one 10 us segment at a 10 ns step.
struct RectifierPlant {
  // Source carrier [Hz]; set from the backend's NominalProfile (5 MHz
  // inductive, 1 MHz magnetoelectric).
  double carrier_hz = link::kInductiveNominal.carrier_hz;
  // Measures whose drive differed from the committed node's; a measure
  // that throws counts nothing.
  int restarts = 0;
  int checkpoints = 0;
  // When set, measure consults this memo before simulating (not owned).
  SegmentMemo* memo = nullptr;

  static std::unique_ptr<spice::Circuit> build(
      double amplitude, double carrier_hz = link::kInductiveNominal.carrier_hz);

  // Adopt `base` as the committed operating point without copying the
  // blob. `base_amplitude` is the drive the blob was captured at, so the
  // first measurement at a different drive counts a restart. Committed
  // nodes are immutable: a measure commits a new node rather than
  // writing into the old one, so mutating this plant can never perturb
  // sibling plants forked from the same blob.
  void fork_from(std::shared_ptr<const spice::TransientCheckpoint> base,
                 double base_amplitude);

  double measure(double amplitude);

  // The committed operating point (forked or committed here), nullptr
  // before the first segment when the plant was not forked.
  const spice::TransientCheckpoint* committed() const;

 private:
  // The one physics path behind measure, memoized or not: one segment
  // from the committed node at `amplitude`.
  Segment simulate(double amplitude);
  // The memo key of a segment from the committed node.
  SegmentKey key(double amplitude) const;

  std::shared_ptr<const spice::TransientCheckpoint> committed_;
  double committed_amplitude_ = -1.0;
};

// One charge-up transient at a fixed drive, checkpointed at the final
// accepted point — the operating point every fleet session forks from.
// It runs the paper's ~270 us charge-up time scale at the segments'
// 10 ns step.
struct ChargeUpSpec {
  double amplitude = kNominalDrive;
  double carrier_hz = link::kInductiveNominal.carrier_hz;

  bool operator==(const ChargeUpSpec&) const = default;
};

// Runs the charge-up in the fault.charge_up profiler zone.
spice::TransientCheckpoint capture_charged_checkpoint(
    const ChargeUpSpec& spec = {}, spice::TransientStats* stats = nullptr);

// Every ChargeUpSpec field as its bit pattern.
struct ChargeUpKey {
  std::uint64_t amplitude = 0;
  std::uint64_t carrier_hz = 0;

  auto operator<=>(const ChargeUpKey&) const = default;
};

// An exact memo of capture_charged_checkpoint: one shared, immutable
// blob per distinct spec. Two cohorts on different backends (different
// amplitude/carrier) get distinct blobs; same-backend cohorts share one.
using ChargeUpMemo =
    ExactMemo<ChargeUpKey, std::shared_ptr<const spice::TransientCheckpoint>>;

// Both plants' exact memos (plants point into them; they do not own
// them). The keys are complete, so how long a bundle lives is a memory
// choice, not a correctness one: each campaign call shares one across
// its scenarios and drops it on return, and a fleet service keeps one
// for its lifetime and rotates it at the start of every run, holding
// at most the distinct inputs of its last two runs.
struct PlantMemos {
  SegmentMemo segments;
  BioZMemo bioz;
};

}  // namespace ironic::fault
