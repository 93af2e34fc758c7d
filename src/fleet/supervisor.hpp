// Fleet supervision: per-session error containment, watchdog deadlines,
// deterministic retry/quarantine, and the crash-durable run journal.
//
// The supervisor wraps run_patient_session so one throwing session
// (singular matrix, Newton give-up, injected chaos, watchdog expiry)
// becomes a recorded SessionHealth entry instead of an unwound
// parallel_for and an aborted fleet. Failed sessions are re-run up to
// policy.max_retries times with their exact original (seed, index) —
// the RNG lanes are rebuilt from scratch each attempt, so a retry that
// succeeds is bit-identical to a clean solo run of that seed — and
// persistent failures are quarantined.
//
// The RunJournal is an append-only JSONL file (one line per terminal
// session outcome, written through a private TelemetrySink so producers
// never block on disk) that makes a fleet run crash-durable: after a
// mid-run kill, `fleet_runner --journal J --resume` replays the
// journaled outcomes, re-runs only the missing sessions, and produces a
// fleet fingerprint identical to an uninterrupted run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/fleet/failure.hpp"
#include "src/fleet/session.hpp"
#include "src/obs/telemetry.hpp"

namespace ironic::fleet {

// Supervision knobs, carried on FleetConfig. Containment itself is
// unconditional — these only shape what happens after a failure.
struct SupervisorPolicy {
  // Re-runs granted to a failed session before it is quarantined.
  int max_retries = 2;
  // Per-attempt wall-clock watchdog (0 = none). The deadline token is
  // polled between exchanges, so a runaway attempt reports `deadline`
  // instead of hanging its pool worker forever.
  double session_deadline_s = 0.0;
  ChaosSpec chaos;
  std::string journal_path;  // "" = no journal
  bool resume = false;       // replay journal_path before running
};

// One session's terminal outcome as the supervisor saw it. The
// fingerprint is fingerprint_session(result) for healthy sessions and a
// deterministic failure marker (index + code + quarantine bit) for
// failed ones, so the fleet fingerprint stays a pure function of
// (config, chaos) — and therefore survives kill/resume bit-identically.
struct SessionHealth {
  std::uint64_t index = 0;
  std::string cohort;
  bool ok = true;
  bool quarantined = false;  // failed every granted attempt
  bool resumed = false;      // replayed from a journal, not re-run
  FailureCode code = FailureCode::kNone;
  std::string message;
  int attempts = 1;  // 1 + retries consumed
  std::uint64_t fingerprint = 0;
};

// The deterministic marker a failed session contributes to the fleet
// fingerprint in place of fingerprint_session.
std::uint64_t failure_fingerprint(const SessionHealth& health);

struct SupervisedSession {
  SessionResult result;  // zeroed (index/cohort only) when !health.ok
  SessionHealth health;
};

// Run one session under the policy: watchdog deadline per attempt,
// chaos injection per the spec, containment + classification of any
// exception, retry with the original seed, quarantine on exhaustion.
// `memos` are handed to every attempt (see run_patient_session).
SupervisedSession run_supervised_session(
    const SessionSpec& spec,
    std::shared_ptr<const spice::TransientCheckpoint> charged,
    obs::MetricsRegistry* scoped, const SupervisorPolicy& policy,
    fault::PlantMemos* memos = nullptr);

// Append-only JSONL run journal. Every line is a self-contained JSON
// object on stream "fleet.journal": one "begin" header (config
// identity) plus one "session" line per terminal outcome carrying the
// health entry, the session fingerprint, and the deterministic summary
// fields the fleet aggregates need (completed/lost/retries/...).
class RunJournal {
 public:
  struct Entry {
    SessionHealth health;
    SessionResult summary;  // aggregate fields only; adc_codes not journaled
  };
  struct State {
    bool valid = false;      // header parsed and well-formed
    std::string error;       // why valid == false (missing file is not
                             // an error: valid=false + empty error)
    std::uint64_t seed = 0;
    std::size_t sessions = 0;
    int exchanges = 0;
    std::map<std::uint64_t, Entry> completed;  // terminal outcomes seen
  };

  // Parse an existing journal. A torn final line (producer killed
  // mid-write) is tolerated and ignored; the sessions it would have
  // recorded are simply re-run on resume.
  static State load(const std::string& path);

  ~RunJournal() { close(); }

  // Open the journal for writing; append instead of truncating when
  // resuming. Returns false when the path cannot be opened (the runner
  // maps that to exit code 2).
  bool open(const std::string& path, bool append);
  bool is_open() const { return sink_.is_open(); }

  // The header line. Written once per fresh journal; a resumed journal
  // keeps its original header.
  void begin(std::size_t sessions, std::uint64_t seed, int exchanges);

  // One terminal session outcome. Non-blocking (ring + drainer); the
  // drainer flushes per batch, and close() drains whatever is queued.
  void record(const SessionHealth& health, const SessionResult& result);

  // Drain, flush, and close the stream. Called on every fleet_runner
  // exit path — including the abnormal ones — so an error exit never
  // strands enqueued lines.
  void close() { sink_.close(); }

 private:
  obs::TelemetrySink sink_;  // private sink: journal lines never mix
                             // with the process-wide telemetry stream
};

}  // namespace ironic::fleet
