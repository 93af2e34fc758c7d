#include "src/fleet/session.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "src/comms/protocol.hpp"
#include "src/fault/bioz.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/session.hpp"
#include "src/link/phy.hpp"
#include "src/obs/profiler.hpp"
#include "src/pm/regulator.hpp"
#include "src/util/fingerprint.hpp"
#include "src/util/rng.hpp"

namespace ironic::fleet {
namespace {

// RNG lane order within a session's split (fixed: reordering would
// change every fleet fingerprint).
enum Lane : std::size_t { kLaneSchedule = 0, kLaneInjector, kLaneChannel, kLaneSession, kLaneCount };

std::vector<util::Rng> session_lanes(const SessionSpec& spec) {
  // hashed_stream is O(1) per session (stream() would cost `index`
  // jumps — quadratic across a fleet); split() then hands the session
  // provably non-overlapping lanes for schedule/injector/channel/backoff.
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
    if (stalled.count() >= controls.stall_seconds) return;
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
    const auto t0 = std::chrono::steady_clock::now();
    charged = std::make_shared<const spice::TransientCheckpoint>(
        fault::capture_charged_checkpoint(spec.charge));
    result.charge_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } else if (spice_plant) {
    result.forked = true;
  }
  const auto body_t0 = std::chrono::steady_clock::now();

  const fault::FaultSchedule schedule = make_session_schedule(spec);
  auto lanes = session_lanes(spec);

  fault::SimClock clock;
  fault::FaultInjector injector(&schedule, &clock, lanes[kLaneInjector]);
  util::Rng channel_rng = lanes[kLaneChannel];
  fault::LinkBudget budget(spec.cohort.link);
  const double sensitivity = budget.p_nominal / 8.0;  // snr 8 when nominal
  const double cadence = budget.nominal().cadence_s;

  fault::RectifierPlant plant;
  plant.carrier_hz = budget.nominal().carrier_hz;
  plant.analysis_hints = spec.analysis_hints;
  if (spice_plant) plant.fork_from(charged, spec.charge.amplitude);
  fault::BioZPlant bioz;
  bioz.analysis_hints = spec.analysis_hints;
  if (memos != nullptr) {
    plant.memo = &memos->segments;
    bioz.memo = &memos->bioz;
  }
  const pm::LdoModel ldo;

  const auto make_factory =
      [&](fault::LinkDirection direction) -> fault::ChannelFactory {
    return [&, direction](double rate) -> comms::Channel {
      comms::Channel physical = [&, rate](const comms::Bits& bits) {
        const double ber = budget.bit_error_rate(budget.power_now(injector),
                                                 sensitivity, rate);
        comms::Bits out = bits;
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (channel_rng.bernoulli(ber)) out[i] = !out[i];
        }
        return out;
      };
      // Fault wrapper inside, backend modulation outside — same layering
      // as the campaign runner, so cohort sessions and campaign
      // scenarios see identical channel symbol streams.
      comms::Channel faulted = injector.wrap(std::move(physical), direction);
      return direction == fault::LinkDirection::kUplink
                 ? budget.phy->wrap_uplink(std::move(faulted))
                 : budget.phy->wrap_downlink(std::move(faulted));
    };
  };

  const auto handler = [&](const comms::Request& request) -> comms::Response {
    comms::Response response;
    response.ok = true;
    if (request.command == comms::Command::kMeasure) {
      fault::tally_active(injector, schedule, clock.now());
      const double power = budget.power_now(injector);
      const double amplitude = budget.drive_amplitude(power, injector);
      double vo = 0.0;    // what the ADC digitizes
      double rail = 0.0;  // what the LDO regulates
      switch (spec.cohort.workload) {
        case fault::Workload::kLactateSpice:
          vo = plant.measure(amplitude);
          rail = vo;
          break;
        case fault::Workload::kLactateBehavioural:
          vo = std::clamp(amplitude - 0.75, 0.0, 3.0);
          rail = vo;
          break;
        case fault::Workload::kBioZ:
          // The sense tap is a tissue voltage, not the supply: the rail
          // the LDO sees is the behavioural rectifier output.
          vo = bioz.measure(amplitude,
                            fault::bioz_tissue_scale(injector.tissue_thickness()));
          rail = std::clamp(amplitude - 0.75, 0.0, 3.0);
          break;
      }
      if (!ldo.in_regulation(rail * injector.rail_scale())) {
        ++result.ldo_violations;
      }
      const std::uint16_t code = fault::adc_code(vo);
      response.payload = {static_cast<std::uint8_t>(code >> 8),
                          static_cast<std::uint8_t>(code & 0xff)};
    }
    return response;
  };

  fault::Session session(make_factory(fault::LinkDirection::kDownlink),
                         make_factory(fault::LinkDirection::kUplink), handler,
                         &clock, lanes[kLaneSession],
                         session_options(spec.cohort));

  obs::Histogram* latency = nullptr;
  if constexpr (obs::kEnabled) {
    if (scoped != nullptr) {
      latency = &scoped->histogram("fleet.session.exchange_latency_s");
    }
  }

  for (int i = 0; i < spec.exchanges; ++i) {
    // Watchdog: cooperative cancellation between exchanges, so a
    // runaway session surfaces as a `deadline` failure instead of
    // holding its pool worker hostage.
    controls.token.throw_if_cancelled();
    if (controls.action != ChaosAction::kNone && i == controls.at_exchange) {
      apply_chaos(controls);
    }
    const auto outcome = session.exchange(comms::Command::kMeasure);
    ++result.exchanges;
    if (latency != nullptr) latency->observe(outcome.elapsed);
    if (outcome.ok && outcome.response->payload.size() >= 2) {
      ++result.completed;
      result.adc_codes.push_back(static_cast<std::uint16_t>(
          (outcome.response->payload[0] << 8) | outcome.response->payload[1]));
    } else {
      ++result.lost;
    }
    clock.advance(cadence);
  }

  const auto& stats = session.stats();
  result.retries = stats.retries;
  result.recovered = stats.recovered;
  result.recover_seconds = stats.recover_seconds;
  result.backoff_seconds = stats.backoff_seconds;
  result.rate_fallbacks = stats.rate_fallbacks;
  result.rate_recoveries = stats.rate_recoveries;
  result.restarts = plant.restarts;
  // The bio-impedance plant is stateless; its committed work is the
  // measurement count, reported in the same column.
  result.checkpoints = spec.cohort.workload == fault::Workload::kBioZ
                           ? bioz.measurements
                           : plant.checkpoints;
  result.power_queries = budget.power_queries;
  result.power_hits = budget.power_hits;
  result.final_rate = session.current_rate();
  result.sim_time = clock.now();
  for (int k = 0; k < fault::kFaultKindCount; ++k) {
    result.faults_injected[static_cast<std::size_t>(k)] =
        injector.injected(static_cast<fault::FaultKind>(k));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - body_t0)
          .count();

  if constexpr (obs::kEnabled) {
    if (scoped != nullptr) {
      scoped->counter("fleet.session.retries")
          .add(static_cast<std::uint64_t>(result.retries));
      scoped->counter("fleet.session.lost")
          .add(static_cast<std::uint64_t>(result.lost));
      scoped->counter("fleet.session.restarts")
          .add(static_cast<std::uint64_t>(result.restarts));
      scoped->gauge("fleet.session.recover_s").set(result.recover_seconds);
      scoped->gauge("fleet.session.final_rate_bps").set(result.final_rate);
    }
  }
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
