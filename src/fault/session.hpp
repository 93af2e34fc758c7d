// Resilient session layer on top of comms::Transactor.
//
// The transactor gives one exchange a fixed retry budget; the session
// wraps it with what patch firmware actually needs to survive a fault
// window: per-exchange wall-clock timeouts on a SimClock, bounded
// exponential backoff with deterministic jitter between attempts, an
// EWMA link-quality estimator, and automatic downlink-rate fallback
// down a ladder (the paper's robust low-rate ASK modes) with probation
// before climbing back. Implant-side ImplantDedup keeps side-effecting
// commands exactly-once across retries.
//
// Everything reports through obs: session.retries, session.backoff_ms,
// session.rate_fallbacks, session.rate_recoveries, session.exchanges,
// session.failures. A session's link quality and rate are its own state
// (link_quality(), current_rate()), not process-wide gauges: the patient
// pipeline publishes each session's final rate to its scoped registry.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/comms/protocol.hpp"
#include "src/fault/schedule.hpp"
#include "src/util/rng.hpp"

namespace ironic::fault {

// The per-cohort firmware knobs. The retry backoff and the link-quality
// estimator behind the rate moves are fixed constants (session.cpp).
struct SessionOptions {
  int max_attempts = 16;          // total send attempts per exchange
  double exchange_timeout = 5.0;  // [s] SimClock budget per exchange
  // Downlink-rate fallback ladder [bit/s], fastest first. The paper's
  // nominal 100 kbit/s ASK downlink degrades gracefully to robust
  // low-rate modes as the link quality drops.
  std::vector<double> rate_ladder = {100e3, 50e3, 25e3, 12.5e3};
};

struct ExchangeOutcome {
  bool ok = false;
  int attempts = 0;        // send attempts consumed
  double elapsed = 0.0;    // [s] SimClock time: airtime + backoff
  double rate = 0.0;       // [bit/s] rate in effect when the exchange ended
  std::optional<comms::Response> response;
};

struct SessionStats {
  int exchanges = 0;
  int failures = 0;          // exchanges abandoned (timeout / attempts)
  int retries = 0;           // attempts beyond the first, across exchanges
  int recovered = 0;         // exchanges that needed >= 1 retry and succeeded
  double backoff_seconds = 0.0;
  double recover_seconds = 0.0;  // elapsed summed over recovered exchanges
  int rate_fallbacks = 0;
  int rate_recoveries = 0;
};

// The session rebuilds its channels whenever the rate moves, so the
// campaign can fold the rate into the physical bit-error model.
using ChannelFactory = std::function<comms::Channel(double bit_rate)>;

class Session {
 public:
  // `clock` must outlive the session; `rng` drives the backoff jitter.
  Session(ChannelFactory downlink, ChannelFactory uplink,
          std::function<comms::Response(const comms::Request&)> implant_handler,
          SimClock* clock, util::Rng rng, SessionOptions options = {});

  // Run one request/response exchange to completion or abandonment,
  // advancing the SimClock through every attempt and backoff.
  ExchangeOutcome exchange(comms::Command command,
                           std::vector<std::uint8_t> payload = {});

  double link_quality() const { return quality_; }
  double current_rate() const;
  const SessionStats& stats() const { return stats_; }
  const comms::TransactorStats& transactor_stats() const { return tstats_; }

 private:
  void advance_clock_through_attempts(std::size_t booked_before);
  void update_quality(bool success);
  void maybe_move_rate();

  ChannelFactory downlink_factory_;
  ChannelFactory uplink_factory_;
  std::function<comms::Response(const comms::Request&)> handler_;
  SimClock* clock_;
  util::Rng rng_;
  SessionOptions options_;

  comms::Transactor transactor_;
  comms::ImplantDedup dedup_;
  comms::TransactorStats tstats_;
  SessionStats stats_;
  double quality_ = 1.0;
  std::size_t rung_ = 0;
  int dwell_ = 0;  // attempts since the last rate move
};

}  // namespace ironic::fault
