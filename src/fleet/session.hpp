// One patient session: the patient pipeline (fault/pipeline.hpp) run
// against a per-session stochastic fault schedule, with its own
// SimClock and private RNG lanes. A session on the rectifier plant
// forks the fleet's shared charged-up checkpoint.
//
// Determinism contract (the fleet's hard guarantee): every value in
// SessionResult that feeds fingerprint_session is a pure function of
// (seed, index, exchanges, cohort, charge) — independent of thread
// count, of sibling sessions, and of whether the charged checkpoint was
// forked from a shared blob or captured by the session itself
// (capture_charged_checkpoint is deterministic, so the forked blob is
// bit-identical to a private capture). `run solo == run in fleet`,
// bitwise, is enforced by tests and CI on this property.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/pipeline.hpp"
#include "src/fault/plant.hpp"
#include "src/fault/schedule.hpp"
#include "src/fleet/failure.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/engine.hpp"

namespace ironic::fleet {

// A patient cohort: how hostile this group's environment is (event
// rates feed the stochastic schedule generator), how hard its patch
// firmware fights back (retry budget, timeout, rate ladder), and which
// physical layer / sensing workload its implants run.
struct CohortProfile {
  std::string name = "nominal";
  // Mean stochastic events per schedule horizon, by family.
  double comms_fault_rate = 1.0;  // kBitFlip / kBurstError, each
  double link_fault_rate = 0.3;   // kCouplingStep / kMisalignment / kTissueDrift
  double rail_fault_rate = 0.3;   // kOvervoltage / kLdoDropout, each
  double mean_fault_duration = 0.5;  // [s] exponential
  // Session-layer firmware knobs.
  int max_attempts = 12;
  double exchange_timeout = 10.0;  // [s]
  std::vector<double> rate_ladder = {100e3, 50e3, 25e3, 12.5e3};
  // LinkPhy backend this cohort's implants are powered by (see
  // link::backend_names()); sets the session cadence and — for
  // non-inductive backends — the charge-up amplitude/carrier.
  std::string link = "inductive";
  // Sensing front end per measurement. kLactateSpice runs the rectifier
  // transient plant (and forks the shared charge-up checkpoint); kBioZ
  // runs the stateless Fricke tissue ladder and needs no charge-up.
  fault::Workload workload = fault::Workload::kLactateSpice;
};

// The stock fleet mix: nominal wearers, a noisy-link cohort (dense
// comms faults — urban RF, loose patch), and a deep-implant cohort
// (weak coupling, long-lived link and rail faults, slower ladder).
std::vector<CohortProfile> default_cohorts();

// Everything that determines a session's results (see the contract
// above): identity, horizon, cohort, and the charge-up operating point.
struct SessionSpec {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;  // fleet-wide session index; keys the RNG lanes
  int exchanges = 4;
  CohortProfile cohort;
  fault::ChargeUpSpec charge;
  bool analysis_hints = false;
};

// The patient pipeline's outcome plus the session's identity. The
// fingerprint covers the index and every deterministic outcome field;
// `forked` is excluded from it and not journaled. The session's time is
// the fleet.session profiler zone's (and fault.charge_up's for a
// private charge-up).
struct SessionResult : fault::PatientOutcome {
  std::uint64_t index = 0;
  std::string cohort;
  bool forked = false;  // ran from a shared checkpoint
};

// FNV-1a over the index and the deterministic outcome fields; equal
// fingerprints mean bit-identical sessions.
std::uint64_t fingerprint_session(const SessionResult& result);

// The per-session stochastic schedule, drawn from the session's
// schedule RNG lane (exposed for plan-validation and tests).
fault::FaultSchedule make_session_schedule(const SessionSpec& spec);

// Run one session to completion. `charged` is the shared charged-up
// operating point the plant forks without copying; pass nullptr and the
// session captures its own (the solo path — bit-identical results by
// the contract above, just slower). `scoped` (optional) receives the
// session's fleet.session.* metrics for cohort aggregation, once the
// session completes: an attempt that throws leaves nothing there.
//
// `controls` is the supervision surface: the watchdog token is polled
// at the top of every exchange (a tripped deadline throws
// exec::TaskCancelled, which the supervisor records as `deadline`
// instead of letting the attempt hang its pool worker), and the chaos
// action — when the supervisor doomed this attempt — throws
// SessionFailure{kChaos} or stalls at the planned exchange. Controls
// never touch the session's RNG lanes or SimClock, so any attempt that
// runs to completion is bit-identical to an uncontrolled run.
//
// `memos` (optional) are the shared plant memos of the fleet service or
// campaign call: a rectifier segment another session (of this run or of
// the service's previous run) already simulated from the same committed
// node at the same drive, or a bio-impedance measure at the same input,
// is read back instead of re-run. A hit returns exactly what the
// simulation would have, so results are unchanged.
SessionResult run_patient_session(
    const SessionSpec& spec,
    std::shared_ptr<const spice::TransientCheckpoint> charged,
    obs::MetricsRegistry* scoped, const SessionControls& controls = {},
    fault::PlantMemos* memos = nullptr);

}  // namespace ironic::fleet
