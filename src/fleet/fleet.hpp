// Fleet-scale session service: N independent patient sessions — each
// the full spice + magnetics + comms + fault pipeline with its own
// SimClock and RNG lanes — sharded across the exec work-stealing pool.
//
// The scaling lever is shared analog state. One charge-up transient is
// captured per distinct ChargeUpSpec (the service's fault::ChargeUpMemo)
// and every session forks the immutable blob instead of re-simulating
// the ~270 us charge-up. Then the service's fault::PlantMemos let
// sessions share every later simulation too: a rectifier segment two
// sessions would simulate from the same committed node at the same
// drive, or a bio-impedance measure at the same input, runs once in a
// run, and a run reads back what the previous run on the service
// simulated. The memo keys are complete, so how long entries live is a
// memory choice: two generations, this run's and the previous run's.
// The hard contract: every session's deterministic results are
// bit-identical to running that session solo with the same seed, for
// any thread count and whether or not analog state was shared —
// slot-indexed results, per-session hashed RNG streams, a deterministic
// capture and exact memos make that structural.
//
// Observability: each session records into a scoped registry parented
// on its cohort's registry; after the run the service aggregates each
// cohort's children and publishes cohort.fleet.<cohort>.* gauges plus
// the fleet.* roll-ups into the root registry, and streams fleet.session
// / fleet progress events through TelemetrySink when it is open.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exec/thread_pool.hpp"
#include "src/fault/plant.hpp"
#include "src/fleet/session.hpp"
#include "src/fleet/supervisor.hpp"

namespace ironic::fleet {

struct FleetConfig {
  std::size_t sessions = 8;
  std::size_t threads = 1;  // pool size for run_fleet (0 = hardware)
  std::uint64_t seed = 0xf1ee70001ull;
  int exchanges = 4;  // per session; overridden when soak_seconds > 0
  // Exchange budget given in seconds: > 0 runs ceil(soak / 0.25 s)
  // exchanges per session, 0.25 s being the inductive cadence, whatever
  // the cohort's link, so an ME cohort (0.5 s cadence) simulates twice
  // the seconds given. Simulated time, not wall time, so a soak is
  // exactly as deterministic as a fixed exchange count. Must be finite,
  // >= 0, and give an exchange count that fits an int (run() rejects
  // others).
  double soak_seconds = 0.0;
  // Whether sessions share analog state: the charge-up checkpoint and
  // the service's plant memos. false = every session captures its own
  // charge-up and simulates every measure itself (the solo path,
  // fleet-wide), and the run leaves the memos as they are. Results are
  // bit-identical either way; only wall clock moves: the A/B lever for
  // the wall time sharing saves.
  bool share_checkpoint = true;
  bool analysis_hints = false;
  fault::ChargeUpSpec charge;
  // Session i belongs to cohorts[i % cohorts.size()].
  std::vector<CohortProfile> cohorts = default_cohorts();
  // Emit a fleet progress telemetry event every this many completed
  // sessions (0 = about 32 events across the run).
  std::size_t progress_every = 0;
  // Supervision: containment is unconditional (a throwing session is
  // always recorded, never a fleet abort); this shapes retries,
  // watchdog deadlines, chaos injection, and the crash-durable journal.
  SupervisorPolicy supervise;
};

// ceil(soak_seconds / inductive cadence) when soaking, else
// config.exchanges.
// Throws std::invalid_argument when that count does not fit an int.
int effective_exchanges(const FleetConfig& config);

struct CohortSummary {
  std::string name;
  std::size_t sessions = 0;
  long long exchanges = 0;
  long long completed = 0;
  long long lost = 0;
  long long retries = 0;
  long long recovered = 0;
  long long restarts = 0;
  // Lost-measurement rate: lost / exchanges across the cohort.
  double lost_rate = 0.0;
  // Exact percentiles (sorted samples, linear interpolation — not
  // histogram-bucket estimates) of per-session mean recovery time
  // [s/recovered exchange] over the cohort's sessions that recovered at
  // least one exchange. 0 when no session recovered anything.
  double recovery_p50_s = 0.0;
  double recovery_p95_s = 0.0;
  double recovery_p99_s = 0.0;
  double mean_recovery_s = 0.0;
  // Supervision roll-up: sessions that ended unhealthy / were
  // quarantined, and failed / cohort-sessions.
  long long failed = 0;
  long long quarantined = 0;
  double failure_rate = 0.0;
};

struct FleetResult {
  std::vector<SessionResult> sessions;  // index order, slot-indexed
  std::vector<SessionHealth> health;    // index order, slot-indexed
  std::vector<CohortSummary> cohorts;   // config order
  // FNV-1a over every session's health fingerprint in index order:
  // fingerprint_session for healthy sessions, failure_fingerprint for
  // failed ones. For an all-healthy run this is exactly the historical
  // fingerprint, and it is invariant to thread count, checkpoint
  // sharing, and kill/resume.
  std::uint64_t fingerprint = 0;
  // Supervision roll-ups.
  long long failed = 0;       // sessions whose terminal outcome is unhealthy
  long long retried = 0;      // sessions that consumed >= 1 retry
  long long quarantined = 0;  // failed sessions that exhausted retries
  long long resumed = 0;      // sessions replayed from the journal
  std::map<std::string, long long> failures_by_code;  // code -> sessions
  // Fleet-wide recovery percentiles (same sample definition as the
  // cohort summaries, across all sessions).
  double recovery_p50_s = 0.0;
  double recovery_p95_s = 0.0;
  double recovery_p99_s = 0.0;
  long long total_exchanges = 0;
  long long lost_measurements = 0;
  double lost_rate = 0.0;
  // Accounting excluded from the fingerprint. The run's per-layer time
  // is in the profiler zones (fleet.session, fault.charge_up, ...).
  double wall_seconds = 0.0;              // the whole run
  std::size_t charge_captures = 0;        // 1 when shared, N when not
  std::size_t checkpoint_forks = 0;       // sessions that ran from the blob
  std::uint64_t power_queries = 0;        // link power queries, fresh sessions
  std::uint64_t power_hits = 0;           // ... of which the memo answered
  // Plant memo traffic over this run (all 0 without sharing): the
  // rectifier segment memo and the bio-impedance memo. `*_carried` are
  // the hits the previous run's generation answered (counted in
  // `*_hits` too). Totals only: which session reaches a key first
  // depends on scheduling, but the totals do not (misses + carried ==
  // this run's distinct inputs).
  std::uint64_t segment_hits = 0;
  std::uint64_t segment_misses = 0;
  std::uint64_t segment_carried = 0;
  std::uint64_t bioz_hits = 0;
  std::uint64_t bioz_misses = 0;
  std::uint64_t bioz_carried = 0;
};

// Exact percentile (p in [0, 100]) of a sorted sample set by linear
// interpolation; 0 on an empty set. Shared with the runner's reporting.
double exact_percentile(const std::vector<double>& sorted, double p);

// Long-lived service: owns the worker pool, the charge-up memo and the
// plant memos, so successive runs (a soak driver, a growing fleet) reuse
// all three. The charge-up memo is never rotated: it holds one blob per
// distinct spec the service has seen. Every sharing run rotates the
// plant memos first: the previous run's entries stay readable for this
// run and the older ones are released, so a service holds at most the
// distinct inputs of its last two sharing runs, however long it lives.
// Runs on one service are meant to follow one another; the per-run memo
// counts assume it.
class FleetService {
 public:
  explicit FleetService(std::size_t threads = 1);

  FleetResult run(const FleetConfig& config);

  std::size_t threads() const { return pool_.size(); }

 private:
  exec::ThreadPool pool_;
  fault::ChargeUpMemo charged_;
  fault::PlantMemos memos_;
};

// One-shot convenience: a service sized config.threads, run once.
FleetResult run_fleet(const FleetConfig& config);

// The parity reference: session `index` of `config`, run alone with a
// private charge-up and no shared state. fingerprint_session of the
// result must equal the fleet's session `index` — the contract CI pins.
SessionResult run_solo_session(const FleetConfig& config, std::uint64_t index);

}  // namespace ironic::fleet
