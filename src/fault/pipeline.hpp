// The one patient pipeline: the paper's end-to-end chain for a single
// implant, shared by campaign scenarios (fault::run_campaign) and fleet
// sessions (fleet::run_patient_session).
//
// Measurement requests flow through the resilient session layer over
// BER channels that the fault injector wraps and the LinkPhy backend
// modulates. Each executed measurement drives one sensing front end
// (the rectifier transient plant, its behavioural stand-in, or the
// bio-impedance ladder) at the drive the link delivers, and the LDO
// regulation invariant is checked under the injected rail scale.
//
// The two callers differ only in what they feed in, so that is all
// PatientInputs holds: the RNG lanes (each caller keeps its own lane
// scheme, and with it its fingerprints), the schedule and session
// options, whether the plant starts from a charged node, the memos, the
// registry and metric prefix, and a hook that runs before every
// exchange (the fleet's watchdog and chaos). The run is a pure function
// of the inputs other than the registry and the hook.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/plant.hpp"
#include "src/fault/schedule.hpp"
#include "src/fault/session.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/engine.hpp"
#include "src/util/rng.hpp"

namespace ironic::fault {

// What one patient run reports. Every field but the power-query
// telemetry is deterministic and fingerprinted by the callers.
struct PatientOutcome {
  int exchanges = 0;   // measurement exchanges attempted
  int completed = 0;   // exchanges that delivered data
  int lost = 0;        // exchanges abandoned -> lost measurements
  int retries = 0;
  int recovered = 0;   // exchanges that needed >= 1 retry yet completed
  double recover_seconds = 0.0;  // elapsed summed over recovered exchanges
  double backoff_seconds = 0.0;
  int rate_fallbacks = 0;
  int rate_recoveries = 0;
  int restarts = 0;     // spice segments re-run from a committed checkpoint
  // Committed transient checkpoints; the stateless bio-impedance plant
  // reports its measurement count in this column instead.
  int checkpoints = 0;
  int ldo_violations = 0;
  double final_rate = 0.0;  // [bit/s] session rate at the end
  double sim_time = 0.0;    // SimClock at the end [s]
  std::array<std::uint64_t, kFaultKindCount> faults_injected{};
  std::vector<std::uint16_t> adc_codes;  // one per completed measurement
  // LinkPhy power queries served, and those the LinkBudget memo
  // answered (telemetry only, never fingerprinted).
  std::uint64_t power_queries = 0;
  std::uint64_t power_hits = 0;
};

struct PatientInputs {
  std::string link = "inductive";  // LinkPhy backend name
  Workload workload = Workload::kLactateSpice;
  FaultSchedule schedule;
  SessionOptions options;
  int exchanges = 0;
  util::Rng injector_rng;
  util::Rng channel_rng;  // bit flips of the physical BER channel
  util::Rng session_rng;  // backoff jitter
  // The committed node the rectifier plant forks from, and the drive it
  // was captured at; null runs a cold plant.
  std::shared_ptr<const spice::TransientCheckpoint> charged;
  double charged_amplitude = 0.0;
  PlantMemos* memos = nullptr;  // null: every measure simulates
  // Receives `<metric_prefix>.*` once the run completes (may be null).
  obs::MetricsRegistry* scoped = nullptr;
  std::string metric_prefix;
  // Runs before exchange i; an exception it throws abandons the run and
  // publishes nothing.
  std::function<void(int)> before_exchange;
};

// Run the pipeline for inputs.exchanges measurement exchanges, one
// cadence of the link's nominal profile apart. On completion it
// publishes, under the prefix, the exchange_latency_s histogram, the
// retries/lost/restarts counters and the recover_s/final_rate_bps
// gauges.
PatientOutcome run_patient(const PatientInputs& inputs);

}  // namespace ironic::fault
