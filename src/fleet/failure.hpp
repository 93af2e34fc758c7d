// Structured session-failure taxonomy for the fleet supervision layer.
//
// A fleet run must survive any single session: a session that throws is
// contained, classified into one of the stable codes below, retried or
// quarantined by the supervisor, and recorded as a SessionHealth entry —
// never an aborted fleet. The codes are a wire format (they land in the
// run journal, BENCH_fleet_soak.json, and CI pins), so renaming one is a
// breaking change.
//
// ChaosSpec lives here too: a deterministic, seeded way to make a subset
// of sessions throw or stall, used by tests and the CI chaos stage to
// prove containment, watchdog deadlines, retry determinism, and
// kill-and-resume parity against real failure paths.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/exec/cancellation.hpp"
#include "src/util/rng.hpp"

namespace ironic::fleet {

// Stable failure codes. kNone is the healthy sentinel; every other code
// maps 1:1 onto a wire string via failure_code_name. Nothing maps to
// kCommsExhausted any more (comms exhaustion returns a lost exchange and
// never throws); it keeps its slot because the journal stores the names
// and the failure fingerprints hash the integer values.
enum class FailureCode {
  kNone = 0,
  kSolverSingular,     // "solver-singular"    matrix went singular
  kNewtonNonconverge,  // "newton-nonconverge" Newton loop gave up
  kCommsExhausted,     // "comms-exhausted"    link retry budget spent (unused)
  kValidation,         // "validation"         bad spec / config input
  kDeadline,           // "deadline"           watchdog deadline expired
  kChaos,              // "chaos"              injected by ChaosSpec
  kUnknown,            // "unknown"            unclassified exception
};
inline constexpr int kFailureCodeCount = 8;

const char* failure_code_name(FailureCode code);
// Inverse of failure_code_name; kUnknown for an unrecognized string.
FailureCode failure_code_from_name(const std::string& name);

// Thrown by session code that already knows its classification (chaos
// injection, spec validation); foreign exceptions are classified by
// type instead (classify_failure).
struct SessionFailure : std::runtime_error {
  SessionFailure(FailureCode code, const std::string& what)
      : std::runtime_error(what), code(code) {}
  FailureCode code;
};

// Map an in-flight exception to a stable code by its type:
// SessionFailure carries its own code, exec::TaskCancelled means the
// watchdog deadline fired, std::invalid_argument is a validation error,
// linalg::SingularMatrixError is solver-singular, and
// spice::ConvergenceError is newton-nonconverge. Everything else is
// kUnknown — contained and recorded, just not attributed; the message
// text is never consulted.
FailureCode classify_failure(const std::exception& error);

// Wall-clock cap for a chaos stall whose watchdog never fires, so a
// chaos run without deadlines still terminates.
inline constexpr double kChaosStallSeconds = 30.0;

// Deterministic fault injection for the supervision layer itself. The
// doomed subset is a pure function of (seed, index) drawn from a private
// hashed RNG stream — never the session's own lanes — so healthy
// sessions are bit-identical with chaos on or off, any thread count.
struct ChaosSpec {
  double throw_rate = 0.0;  // P(session throws SessionFailure{kChaos})
  double stall_rate = 0.0;  // P(session stalls until watchdog/stall cap)
  // Attempts (initial try + retries) that fail before the session runs
  // clean: 1 proves the retry path recovers, > max_retries proves
  // quarantine.
  int fail_attempts = 1;

  bool enabled() const { return throw_rate > 0.0 || stall_rate > 0.0; }
};

// What chaos has decided for one session attempt.
enum class ChaosAction { kNone, kThrow, kStall };

struct ChaosPlan {
  ChaosAction action = ChaosAction::kNone;
  int fail_attempts = 0;  // attempts doomed before the session runs clean
  int at_exchange = 0;    // exchange index where the action triggers
};

// The deterministic chaos decision for session (seed, index) over an
// `exchanges`-long horizon.
ChaosPlan chaos_plan(const ChaosSpec& chaos, std::uint64_t seed,
                     std::uint64_t index, int exchanges);

// Per-attempt control surface threaded into run_patient_session: the
// watchdog token polled between exchanges, plus the chaos action (if
// any) for this attempt. Default-constructed controls are inert — the
// pre-supervision call sites behave exactly as before.
struct SessionControls {
  exec::CancellationToken token{};
  ChaosAction action = ChaosAction::kNone;
  int at_exchange = 0;
};

}  // namespace ironic::fleet
