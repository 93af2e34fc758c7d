#include "src/fleet/session.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "src/link/phy.hpp"
#include "src/obs/profiler.hpp"
#include "src/util/fingerprint.hpp"
#include "src/util/rng.hpp"

namespace ironic::fleet {
namespace {

// RNG lane order within a session's split (fixed: reordering would
// change every fleet fingerprint).
enum Lane : std::size_t { kLaneSchedule = 0, kLaneInjector, kLaneChannel, kLaneSession, kLaneCount };

std::vector<util::Rng> session_lanes(const SessionSpec& spec) {
  // hashed_stream is O(1) per session (stream() costs O(log index)
  // jump-matrix products); split() then hands the session provably
  // non-overlapping lanes for schedule/injector/channel/backoff.
  return util::Rng::hashed_stream(spec.seed, spec.index).split(kLaneCount);
}

fault::SessionOptions session_options(const CohortProfile& cohort) {
  fault::SessionOptions options;
  options.max_attempts = cohort.max_attempts;
  options.exchange_timeout = cohort.exchange_timeout;
  options.rate_ladder = cohort.rate_ladder;
  return options;
}

// The chaos action for a doomed attempt, fired at its planned exchange.
// kThrow raises the classified failure; kStall spins wall-clock (no
// SimClock, no RNG) until the watchdog token trips — reported as a
// deadline, the runaway-session path — or the stall cap elapses, after
// which the session resumes and completes normally.
void apply_chaos(const SessionControls& controls) {
  if (controls.action == ChaosAction::kThrow) {
    throw SessionFailure(FailureCode::kChaos,
                         "chaos: injected failure at exchange " +
                             std::to_string(controls.at_exchange));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    if (controls.token.cancelled()) {
      throw exec::TaskCancelled(
          "fleet: session stalled past its watchdog deadline");
    }
    const std::chrono::duration<double> stalled =
        std::chrono::steady_clock::now() - t0;
    if (stalled.count() >= kChaosStallSeconds) return;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

}  // namespace

std::vector<CohortProfile> default_cohorts() {
  CohortProfile nominal;
  nominal.name = "nominal";

  CohortProfile noisy;
  noisy.name = "noisy_link";
  noisy.comms_fault_rate = 3.0;
  noisy.mean_fault_duration = 0.8;
  noisy.max_attempts = 16;

  CohortProfile deep;
  deep.name = "deep_implant";
  deep.comms_fault_rate = 1.5;
  deep.link_fault_rate = 1.2;
  deep.rail_fault_rate = 0.8;
  deep.mean_fault_duration = 1.2;
  deep.max_attempts = 16;
  deep.exchange_timeout = 20.0;
  deep.rate_ladder = {100e3, 50e3, 25e3, 12.5e3, 6.25e3};

  return {nominal, noisy, deep};
}

fault::FaultSchedule make_session_schedule(const SessionSpec& spec) {
  auto lanes = session_lanes(spec);
  fault::StochasticScheduleConfig config;
  // Horizon tracks the cohort backend's exchange cadence (0.25 s for
  // the inductive link — bit-identical to the pre-LinkPhy fleets).
  config.horizon =
      link::nominal_profile(spec.cohort.link).cadence_s * spec.exchanges + 1.0;
  config.mean_duration = spec.cohort.mean_fault_duration;
  using fault::FaultKind;
  auto rate = [&config](FaultKind kind, double events) {
    config.events_per_kind[static_cast<int>(kind)] = events;
  };
  rate(FaultKind::kCouplingStep, spec.cohort.link_fault_rate);
  rate(FaultKind::kMisalignment, spec.cohort.link_fault_rate);
  rate(FaultKind::kTissueDrift, spec.cohort.link_fault_rate);
  rate(FaultKind::kBitFlip, spec.cohort.comms_fault_rate);
  rate(FaultKind::kBurstError, spec.cohort.comms_fault_rate);
  rate(FaultKind::kOvervoltage, spec.cohort.rail_fault_rate);
  rate(FaultKind::kLdoDropout, spec.cohort.rail_fault_rate);
  // No battery in the link pipeline: a brownout event would tally
  // nowhere and only confuse the per-kind counts.
  rate(FaultKind::kBrownout, 0.0);
  return fault::FaultSchedule::stochastic(lanes[kLaneSchedule], config);
}

SessionResult run_patient_session(
    const SessionSpec& spec,
    std::shared_ptr<const spice::TransientCheckpoint> charged,
    obs::MetricsRegistry* scoped, const SessionControls& controls,
    fault::PlantMemos* memos) {
  PROF_ZONE("fleet.session");
  SessionResult result;
  result.index = spec.index;
  result.cohort = spec.cohort.name;

  // Only the rectifier transient plant carries analog state between
  // measurements; the other workloads never touch the charge-up blob.
  const bool spice_plant =
      spec.cohort.workload == fault::Workload::kLactateSpice;

  // Solo path: no shared blob, so this session pays its own charge-up.
  // capture_charged_checkpoint is deterministic, so the private blob is
  // bit-identical to the fleet's shared one — forking changes wall
  // clock, never results.
  if (spice_plant && charged == nullptr) {
    charged = std::make_shared<const spice::TransientCheckpoint>(
        fault::capture_charged_checkpoint(spec.charge));
  } else if (spice_plant) {
    result.forked = true;
  }

  fault::PatientInputs inputs;
  inputs.link = spec.cohort.link;
  inputs.workload = spec.cohort.workload;
  inputs.schedule = make_session_schedule(spec);
  inputs.options = session_options(spec.cohort);
  inputs.exchanges = spec.exchanges;
  const auto lanes = session_lanes(spec);
  inputs.injector_rng = lanes[kLaneInjector];
  inputs.channel_rng = lanes[kLaneChannel];
  inputs.session_rng = lanes[kLaneSession];
  if (spice_plant) {
    inputs.charged = std::move(charged);
    inputs.charged_amplitude = spec.charge.amplitude;
  }
  inputs.memos = memos;
  inputs.scoped = scoped;
  inputs.metric_prefix = "fleet.session";
  inputs.before_exchange = [&controls](int i) {
    // Watchdog: cooperative cancellation between exchanges, so a
    // runaway session surfaces as a `deadline` failure instead of
    // holding its pool worker hostage.
    controls.token.throw_if_cancelled();
    if (controls.action != ChaosAction::kNone && i == controls.at_exchange) {
      apply_chaos(controls);
    }
  };
  static_cast<fault::PatientOutcome&>(result) = fault::run_patient(inputs);
  return result;
}

std::uint64_t fingerprint_session(const SessionResult& result) {
  util::Fingerprint fp;
  fp.feed_i(static_cast<long long>(result.index));
  fp.feed_i(result.exchanges);
  fp.feed_i(result.completed);
  fp.feed_i(result.lost);
  fp.feed_i(result.retries);
  fp.feed_i(result.recovered);
  fp.feed(result.recover_seconds);
  fp.feed(result.backoff_seconds);
  fp.feed_i(result.rate_fallbacks);
  fp.feed_i(result.rate_recoveries);
  fp.feed_i(result.restarts);
  fp.feed_i(result.checkpoints);
  fp.feed_i(result.ldo_violations);
  fp.feed(result.final_rate);
  fp.feed(result.sim_time);
  for (const auto count : result.faults_injected) fp.feed(count);
  for (const auto code : result.adc_codes) {
    fp.feed(static_cast<std::uint64_t>(code));
  }
  return fp.value();
}

}  // namespace ironic::fleet
