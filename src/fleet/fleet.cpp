#include "src/fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/link/inductive.hpp"
#include "src/link/phy.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/fingerprint.hpp"

namespace ironic::fleet {
namespace {

// A streaming run emits about this many fleet progress events.
constexpr std::size_t kProgressEvents = 32;

// The charge-up operating point for one cohort: the fleet-wide spec,
// with the amplitude/carrier retargeted to the cohort backend's nominal
// drive when it is not the inductive default. The charge-up memo keys on
// the spec's bits, so same-backend cohorts still share one blob.
fault::ChargeUpSpec charge_for(const FleetConfig& config,
                               const CohortProfile& cohort) {
  fault::ChargeUpSpec charge = config.charge;
  if (cohort.link != "inductive") {
    const link::NominalProfile& profile = link::nominal_profile(cohort.link);
    charge.amplitude = profile.drive_v;
    charge.carrier_hz = profile.carrier_hz;
  }
  return charge;
}

SessionSpec make_spec(const FleetConfig& config, std::uint64_t index) {
  SessionSpec spec;
  spec.seed = config.seed;
  spec.index = index;
  spec.exchanges = effective_exchanges(config);
  spec.cohort = config.cohorts[index % config.cohorts.size()];
  spec.charge = charge_for(config, spec.cohort);
  return spec;
}

void validate(const FleetConfig& config) {
  if (config.sessions < 1) {
    throw std::invalid_argument("fleet: sessions must be >= 1");
  }
  if (config.cohorts.empty()) {
    throw std::invalid_argument("fleet: at least one cohort profile");
  }
  if (!std::isfinite(config.soak_seconds) || config.soak_seconds < 0.0) {
    throw std::invalid_argument("fleet: soak seconds must be finite and >= 0");
  }
  if (effective_exchanges(config) < 1) {
    throw std::invalid_argument("fleet: exchanges must be >= 1");
  }
  // The watchdog casts the deadline to integer nanoseconds; a product
  // that does not fit them overflows that cast (undefined behaviour).
  const double deadline_ns = config.supervise.session_deadline_s * 1e9;
  if (!(deadline_ns >= 0.0 &&
        deadline_ns < static_cast<double>(
                          std::chrono::nanoseconds::max().count()))) {
    throw std::invalid_argument(
        "fleet: session deadline must be finite, >= 0 and fit in "
        "nanoseconds");
  }
  // One uniform draw picks throw, stall or neither, so each chaos rate
  // is a probability and the two cannot sum past 1 (NaN fails every
  // comparison here).
  const ChaosSpec& chaos = config.supervise.chaos;
  const auto is_rate = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  if (!is_rate(chaos.throw_rate) || !is_rate(chaos.stall_rate) ||
      !is_rate(chaos.throw_rate + chaos.stall_rate)) {
    throw std::invalid_argument(
        "fleet: chaos rates must be finite, in [0, 1] and sum to at most 1");
  }
  if (chaos.fail_attempts < 1) {
    throw std::invalid_argument("fleet: chaos attempts must be >= 1");
  }
  for (const auto& cohort : config.cohorts) {
    if (!link::is_backend(cohort.link)) {
      throw std::invalid_argument("fleet: cohort '" + cohort.name +
                                  "': unknown link backend '" + cohort.link +
                                  "'");
    }
  }
}

}  // namespace

int effective_exchanges(const FleetConfig& config) {
  if (config.soak_seconds > 0.0) {
    const double exchanges =
        std::ceil(config.soak_seconds / link::kInductiveNominal.cadence_s);
    if (!(exchanges <= static_cast<double>(std::numeric_limits<int>::max()))) {
      throw std::invalid_argument(
          "fleet: soak horizon needs more exchanges than an int holds");
    }
    return std::max(1, static_cast<int>(exchanges));
  }
  return config.exchanges;
}

double exact_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

FleetService::FleetService(std::size_t threads) : pool_(threads) {}

FleetResult FleetService::run(const FleetConfig& config) {
  validate(config);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t captures_before = charged_.misses();
  const std::size_t n_cohorts = config.cohorts.size();

  FleetResult result;
  result.sessions.resize(config.sessions);
  result.health.resize(config.sessions);

  // Crash-durable journal: when resuming, replay the previous run's
  // terminal outcomes and append to the same file; otherwise start a
  // fresh journal with a header pinning the run identity. Outcomes are
  // deterministic, so a replayed entry stands in for a re-run exactly.
  RunJournal journal;
  RunJournal::State journal_state;
  const SupervisorPolicy& policy = config.supervise;
  if (!policy.journal_path.empty()) {
    bool append = false;
    if (policy.resume) {
      journal_state = RunJournal::load(policy.journal_path);
      if (!journal_state.error.empty()) {
        throw std::invalid_argument("fleet: resume: " + journal_state.error);
      }
      if (journal_state.valid) {
        if (journal_state.seed != config.seed ||
            journal_state.sessions != config.sessions ||
            journal_state.exchanges != effective_exchanges(config)) {
          throw std::invalid_argument(
              "fleet: resume: journal header does not match this run "
              "(seed/sessions/exchanges)");
        }
        append = true;
      }
    }
    if (!journal.open(policy.journal_path, append)) {
      throw std::invalid_argument("fleet: cannot open journal: " +
                                  policy.journal_path);
    }
    if (!append) {
      journal.begin(config.sessions, config.seed, effective_exchanges(config));
    }
  }

  // One capture per distinct spec, shared by every session in the
  // cohorts that need it (the bio-impedance workload is stateless and
  // skips charge-up entirely). The charge-up memo keys on the spec's
  // bits, so same-backend cohorts resolve to the same blob. The plant
  // memos then share every later rectifier segment of sessions with the
  // same drive history, and every repeated bio-impedance measure;
  // rotating them keeps the previous run's entries readable and
  // releases the older ones.
  std::vector<std::shared_ptr<const spice::TransientCheckpoint>> blobs(
      n_cohorts);
  memos_.segments.rotate();
  memos_.bioz.rotate();
  for (std::size_t c = 0; c < n_cohorts; ++c) {
    if (config.cohorts[c].workload == fault::Workload::kLactateSpice) {
      const fault::ChargeUpSpec spec = charge_for(config, config.cohorts[c]);
      blobs[c] = charged_.lookup(
          {std::bit_cast<std::uint64_t>(spec.amplitude),
           std::bit_cast<std::uint64_t>(spec.carrier_hz)},
          nullptr, [&spec] {
            return std::make_shared<const spice::TransientCheckpoint>(
                fault::capture_charged_checkpoint(spec));
          });
    }
  }

  // Registries forked up front on this thread: session i records into
  // session_regs[i] only (slot-indexed like the results), parented on
  // its cohort's registry so each cohort aggregates its own children.
  auto& root = obs::MetricsRegistry::instance();
  std::vector<std::shared_ptr<obs::MetricsRegistry>> cohort_regs;
  std::vector<std::shared_ptr<obs::MetricsRegistry>> session_regs;
  if constexpr (obs::kEnabled) {
    cohort_regs.reserve(n_cohorts);
    for (const auto& cohort : config.cohorts) {
      cohort_regs.push_back(root.scoped({{"cohort", cohort.name}}));
    }
    session_regs.reserve(config.sessions);
    for (std::size_t i = 0; i < config.sessions; ++i) {
      session_regs.push_back(
          cohort_regs[i % n_cohorts]->scoped({{"session", std::to_string(i)}}));
    }
  }

  auto& sink = obs::TelemetrySink::instance();
  const bool stream = obs::kEnabled && sink.is_open();
  const std::size_t every =
      std::max<std::size_t>(1, config.sessions / kProgressEvents);

  exec::ParallelForOptions options;
  options.grain = 1;
  if (stream) {
    options.progress = [&sink, every](std::size_t done, std::size_t total) {
      if (done % every == 0 || done == total) {
        sink.emit_event(
            "fleet", "progress",
            {{"done", obs::json::Value(static_cast<std::uint64_t>(done))},
             {"total", obs::json::Value(static_cast<std::uint64_t>(total))}});
      }
    };
  }
  exec::parallel_for(
      pool_, 0, config.sessions,
      [&](std::size_t i) {
        // Resume: a journaled terminal outcome replaces the re-run.
        const auto done = journal_state.completed.find(i);
        if (done != journal_state.completed.end()) {
          result.sessions[i] = done->second.summary;
          result.health[i] = done->second.health;
          return;
        }
        const SessionSpec spec = make_spec(config, i);
        obs::MetricsRegistry* scoped =
            session_regs.empty() ? nullptr : session_regs[i].get();
        // Containment is unconditional: a throwing session comes back
        // as a recorded SessionHealth, never an unwound parallel_for.
        SupervisedSession sup =
            run_supervised_session(spec, blobs[i % n_cohorts], scoped, policy,
                                   &memos_);
        if (journal.is_open()) journal.record(sup.health, sup.result);
        result.sessions[i] = std::move(sup.result);
        result.health[i] = std::move(sup.health);
        if (stream) {
          const auto& s = result.sessions[i];
          const auto& h = result.health[i];
          sink.emit_event(
              "fleet.session", "complete",
              {{"session", obs::json::Value(static_cast<std::uint64_t>(i))},
               {"cohort", obs::json::Value(s.cohort)},
               {"ok", obs::json::Value(h.ok)},
               {"code", obs::json::Value(
                            std::string(failure_code_name(h.code)))},
               {"completed",
                obs::json::Value(static_cast<std::uint64_t>(s.completed))},
               {"lost", obs::json::Value(static_cast<std::uint64_t>(s.lost))},
               {"retries",
                obs::json::Value(static_cast<std::uint64_t>(s.retries))},
               {"recover_s", obs::json::Value(s.recover_seconds)}});
        }
      },
      options);

  // Fold the slot-indexed sessions into cohort summaries and the fleet
  // roll-up. Samples are sorted before the percentile walk, so the
  // statistics (like the fingerprint) never depend on completion order.
  result.cohorts.resize(n_cohorts);
  std::vector<std::vector<double>> cohort_samples(n_cohorts);
  std::vector<double> all_samples;
  util::Fingerprint fp;
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const auto& s = result.sessions[i];
    const auto& h = result.health[i];
    auto& cohort = result.cohorts[i % n_cohorts];
    ++cohort.sessions;
    cohort.exchanges += s.exchanges;
    cohort.completed += s.completed;
    cohort.lost += s.lost;
    cohort.retries += s.retries;
    cohort.recovered += s.recovered;
    cohort.restarts += s.restarts;
    if (s.recovered > 0) {
      const double sample = s.recover_seconds / s.recovered;
      cohort_samples[i % n_cohorts].push_back(sample);
      all_samples.push_back(sample);
    }
    if (!h.ok) {
      ++cohort.failed;
      ++result.failed;
      ++result.failures_by_code[failure_code_name(h.code)];
      if (h.quarantined) {
        ++cohort.quarantined;
        ++result.quarantined;
      }
    }
    if (h.attempts > 1) ++result.retried;
    if (h.resumed) {
      // Replayed outcomes cost no wall clock this run; their summary
      // fields fold into the aggregates above, nothing else.
      ++result.resumed;
    } else {
      if (s.forked) ++result.checkpoint_forks;
      result.power_queries += s.power_queries;
      result.power_hits += s.power_hits;
    }
    result.total_exchanges += s.exchanges;
    result.lost_measurements += s.lost;
    // fingerprint_session for healthy sessions, failure_fingerprint for
    // failed ones — equal to the historical fingerprint when all heal.
    fp.feed(h.fingerprint);
  }
  for (std::size_t c = 0; c < n_cohorts; ++c) {
    auto& cohort = result.cohorts[c];
    cohort.name = config.cohorts[c].name;
    cohort.lost_rate =
        cohort.exchanges > 0
            ? static_cast<double>(cohort.lost) / static_cast<double>(cohort.exchanges)
            : 0.0;
    cohort.failure_rate =
        cohort.sessions > 0
            ? static_cast<double>(cohort.failed) /
                  static_cast<double>(cohort.sessions)
            : 0.0;
    auto& samples = cohort_samples[c];
    std::sort(samples.begin(), samples.end());
    cohort.recovery_p50_s = exact_percentile(samples, 50.0);
    cohort.recovery_p95_s = exact_percentile(samples, 95.0);
    cohort.recovery_p99_s = exact_percentile(samples, 99.0);
    if (!samples.empty()) {
      double sum = 0.0;
      for (const double sample : samples) sum += sample;
      cohort.mean_recovery_s = sum / static_cast<double>(samples.size());
    }
  }
  std::sort(all_samples.begin(), all_samples.end());
  result.recovery_p50_s = exact_percentile(all_samples, 50.0);
  result.recovery_p95_s = exact_percentile(all_samples, 95.0);
  result.recovery_p99_s = exact_percentile(all_samples, 99.0);
  result.lost_rate = result.total_exchanges > 0
                         ? static_cast<double>(result.lost_measurements) /
                               static_cast<double>(result.total_exchanges)
                         : 0.0;
  result.fingerprint = fp.value();
  result.segment_hits = memos_.segments.hits();
  result.segment_misses = memos_.segments.misses();
  result.segment_carried = memos_.segments.carried();
  result.bioz_hits = memos_.bioz.hits();
  result.bioz_misses = memos_.bioz.misses();
  result.bioz_carried = memos_.bioz.carried();
  // 0 when an earlier run on this service captured every spec.
  result.charge_captures = charged_.misses() - captures_before;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if constexpr (obs::kEnabled) {
    root.counter("fleet.runs").add();
    root.gauge("fleet.sessions").set(static_cast<double>(config.sessions));
    root.gauge("fleet.threads").set(static_cast<double>(pool_.size()));
    root.gauge("fleet.total_exchanges")
        .set(static_cast<double>(result.total_exchanges));
    root.gauge("fleet.lost_measurements")
        .set(static_cast<double>(result.lost_measurements));
    root.gauge("fleet.lost_rate").set(result.lost_rate);
    root.gauge("fleet.recovery_p50_s").set(result.recovery_p50_s);
    root.gauge("fleet.recovery_p95_s").set(result.recovery_p95_s);
    root.gauge("fleet.recovery_p99_s").set(result.recovery_p99_s);
    root.gauge("fleet.charge_captures")
        .set(static_cast<double>(result.charge_captures));
    root.gauge("fleet.checkpoint_forks")
        .set(static_cast<double>(result.checkpoint_forks));
    root.gauge("fleet.wall_seconds").set(result.wall_seconds);
    root.counter("link.power_queries").add(result.power_queries);
    root.counter("link.power_hits").add(result.power_hits);
    root.counter("fleet.segment_hits").add(result.segment_hits);
    root.counter("fleet.segment_misses").add(result.segment_misses);
    root.counter("fleet.segment_carried").add(result.segment_carried);
    root.counter("fleet.bioz_hits").add(result.bioz_hits);
    root.counter("fleet.bioz_misses").add(result.bioz_misses);
    root.counter("fleet.bioz_carried").add(result.bioz_carried);
    // Supervision roll-ups: always published (zero on a clean run) so
    // trace_validate --require can pin them either way.
    root.gauge("fleet.failed").set(static_cast<double>(result.failed));
    root.gauge("fleet.retried").set(static_cast<double>(result.retried));
    root.gauge("fleet.quarantined")
        .set(static_cast<double>(result.quarantined));
    root.gauge("fleet.resumed").set(static_cast<double>(result.resumed));
    for (const auto& [code, count] : result.failures_by_code) {
      root.gauge("fleet.failures." + code).set(static_cast<double>(count));
    }
    for (const auto& cohort : result.cohorts) {
      root.gauge("cohort.fleet." + cohort.name + ".failed")
          .set(static_cast<double>(cohort.failed));
      root.gauge("cohort.fleet." + cohort.name + ".failure_rate")
          .set(cohort.failure_rate);
    }
    if (result.wall_seconds > 0.0) {
      root.gauge("fleet.sessions_per_second")
          .set(static_cast<double>(config.sessions) / result.wall_seconds);
    }
    // Per-cohort aggregates land in the root registry so one run report
    // (and trace_validate --require) pins every cohort's statistics.
    for (std::size_t c = 0; c < n_cohorts; ++c) {
      cohort_regs[c]->publish_cohorts("cohort.fleet." + config.cohorts[c].name,
                                      root);
    }
    if (stream) {
      sink.emit_event(
          "fleet", "complete",
          {{"sessions",
            obs::json::Value(static_cast<std::uint64_t>(config.sessions))},
           {"failed",
            obs::json::Value(static_cast<std::uint64_t>(result.failed))},
           {"quarantined",
            obs::json::Value(static_cast<std::uint64_t>(result.quarantined))},
           {"resumed",
            obs::json::Value(static_cast<std::uint64_t>(result.resumed))},
           {"lost_rate", obs::json::Value(result.lost_rate)},
           {"recovery_p95_s", obs::json::Value(result.recovery_p95_s)},
           {"fingerprint", obs::json::Value(result.fingerprint)}});
    }
  }
  return result;
}

FleetResult run_fleet(const FleetConfig& config) {
  FleetService service(config.threads);
  return service.run(config);
}

SessionResult run_solo_session(const FleetConfig& config, std::uint64_t index) {
  validate(config);
  return run_patient_session(make_spec(config, index), nullptr, nullptr);
}

}  // namespace ironic::fleet
