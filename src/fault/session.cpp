#include "src/fault/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/telemetry.hpp"

namespace ironic::fault {
namespace {

// Registry handles for the session hot path, resolved once (the
// TransactorMetrics pattern from comms/protocol.cpp).
struct SessionMetrics {
  obs::Counter& exchanges;
  obs::Counter& retries;
  obs::Counter& failures;
  obs::Counter& rate_fallbacks;
  obs::Counter& rate_recoveries;
  obs::Histogram& backoff_ms;

  static SessionMetrics& get() {
    static SessionMetrics m = [] {
      auto& r = obs::MetricsRegistry::instance();
      return SessionMetrics{
          r.counter("session.exchanges"),
          r.counter("session.retries"),
          r.counter("session.failures"),
          r.counter("session.rate_fallbacks"),
          r.counter("session.rate_recoveries"),
          r.histogram("session.backoff_ms",
                      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
      };
    }();
    return m;
  }
};

// Stream a session state transition to the telemetry sink when one is
// open. Pure observation: never blocks and never perturbs the
// simulation's RNG or clock, so campaign fingerprints are identical
// with telemetry on or off.
void emit_session_event(const char* event, double quality, double rate_bps) {
  auto& sink = obs::TelemetrySink::instance();
  if (!sink.is_open()) return;
  obs::json::Value::Object fields;
  fields["quality"] = quality;
  fields["rate_bps"] = rate_bps;
  sink.emit_event("fault.session", event, std::move(fields));
}

}  // namespace

Session::Session(ChannelFactory downlink, ChannelFactory uplink,
                 std::function<comms::Response(const comms::Request&)> implant_handler,
                 SimClock* clock, util::Rng rng, SessionOptions options)
    : downlink_factory_(std::move(downlink)),
      uplink_factory_(std::move(uplink)),
      handler_(std::move(implant_handler)),
      clock_(clock),
      rng_(rng),
      options_(std::move(options)),
      transactor_(options_.transactor_retries) {
  if (clock_ == nullptr) throw std::invalid_argument("Session: clock required");
  if (!downlink_factory_ || !uplink_factory_ || !handler_) {
    throw std::invalid_argument("Session: channel factories and handler required");
  }
  if (options_.rate_ladder.empty() || options_.max_attempts < 1) {
    throw std::invalid_argument("Session: need a rate ladder and >= 1 attempt");
  }
}

double Session::current_rate() const { return options_.rate_ladder[rung_]; }

void Session::advance_clock_through_attempts(std::size_t booked_before) {
  for (std::size_t i = booked_before; i < tstats_.attempt_seconds.size(); ++i) {
    clock_->advance(tstats_.attempt_seconds[i]);
  }
}

void Session::update_quality(bool success) {
  quality_ = (1.0 - options_.quality_alpha) * quality_ +
             options_.quality_alpha * (success ? 1.0 : 0.0);
  ++dwell_;
}

void Session::maybe_move_rate() {
  if (dwell_ < options_.min_dwell) return;
  bool moved = false;
  if (quality_ < options_.fallback_threshold &&
      rung_ + 1 < options_.rate_ladder.size()) {
    ++rung_;
    ++stats_.rate_fallbacks;
    if constexpr (obs::kEnabled) {
      SessionMetrics::get().rate_fallbacks.add();
      emit_session_event("rate_fallback", quality_,
                         options_.rate_ladder[rung_]);
    }
    moved = true;
  } else if (quality_ > options_.recovery_threshold && rung_ > 0) {
    --rung_;
    ++stats_.rate_recoveries;
    if constexpr (obs::kEnabled) {
      SessionMetrics::get().rate_recoveries.add();
      emit_session_event("rate_recovery", quality_,
                         options_.rate_ladder[rung_]);
    }
    moved = true;
  }
  if (moved) {
    dwell_ = 0;
    // Probation: the estimator restarts between the thresholds so the
    // new rate must prove itself before the next move either way.
    quality_ = 0.75;
  }
}

ExchangeOutcome Session::exchange(comms::Command command,
                                  std::vector<std::uint8_t> payload) {
  PROF_ZONE("comms.exchange");
  ++stats_.exchanges;
  if constexpr (obs::kEnabled) SessionMetrics::get().exchanges.add();

  comms::Request request;
  request.sequence = transactor_.next_sequence();
  request.command = command;
  request.payload = std::move(payload);

  const auto deduped_handler = [this](const comms::Request& r) {
    return dedup_.handle(r, handler_, &tstats_);
  };

  const double t_start = clock_->now();
  ExchangeOutcome outcome;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    transactor_.set_bit_rate(current_rate());
    const comms::Channel down = downlink_factory_(current_rate());
    const comms::Channel up = uplink_factory_(current_rate());
    const std::size_t booked = tstats_.attempt_seconds.size();
    auto response = transactor_.execute(request, down, up, deduped_handler,
                                        &tstats_);
    advance_clock_through_attempts(booked);
    ++outcome.attempts;
    if (attempt > 0) {
      ++stats_.retries;
      if constexpr (obs::kEnabled) SessionMetrics::get().retries.add();
    }
    const bool ok = response.has_value();
    update_quality(ok);
    maybe_move_rate();
    if (ok) {
      outcome.ok = true;
      outcome.response = std::move(response);
      break;
    }
    if (clock_->now() - t_start >= options_.exchange_timeout) break;
    if (attempt + 1 < options_.max_attempts) {
      double delay = options_.backoff_initial *
                     std::pow(options_.backoff_factor, attempt);
      delay = std::min(delay, options_.backoff_max);
      delay *= std::max(0.0, 1.0 + options_.jitter * rng_.uniform(-1.0, 1.0));
      clock_->advance(delay);
      stats_.backoff_seconds += delay;
      if constexpr (obs::kEnabled) {
        SessionMetrics::get().backoff_ms.observe(delay * 1e3);
      }
    }
  }
  outcome.elapsed = clock_->now() - t_start;
  outcome.rate = current_rate();
  if (!outcome.ok) {
    ++stats_.failures;
    if constexpr (obs::kEnabled) {
      SessionMetrics::get().failures.add();
      emit_session_event("exchange_failed", quality_, current_rate());
    }
  } else if (outcome.attempts > 1) {
    ++stats_.recovered;
    stats_.recover_seconds += outcome.elapsed;
  }
  return outcome;
}

}  // namespace ironic::fault
