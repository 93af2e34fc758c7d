// fleet_runner — run the fleet-scale session service from the command
// line: N independent patient sessions (full spice + magnetics + comms
// + fault pipeline each), sharded across the exec pool, forking one
// shared charged-up checkpoint per session instead of re-simulating the
// charge-up per patient, and sharing every later rectifier segment
// between sessions with the same drive history and every repeated
// bio-impedance measure (the run's plant memos).
//
//   fleet_runner [--sessions N] [--threads N] [--seed S]
//                [--exchanges N | --soak SECONDS]
//                [--link inductive|me] [--workload lactate|bioz]
//                [--retries N] [--deadline SECS]
//                [--chaos RATE] [--chaos-stall RATE] [--chaos-attempts N]
//                [--journal FILE] [--resume]
//                [--verify-solo N] [--out FILE] [--telemetry FILE|-]
//
// Determinism contract: the result is bit-identical for any --threads
// value, and every session is bit-identical to running it alone
// (--verify-solo re-runs a sample of sessions solo, with their own
// charge-up, and exits 1 on any fingerprint mismatch). The obs run
// report lands in BENCH_fleet_soak.json: per-cohort percentile recovery
// time, lost-measurement rate, the checkpoint-fork and plant-memo
// accounting, and the supervision health roll-ups (fleet.failed /
// retried / quarantined and per-code failure counters).
//
// Exit-code contract (pinned by FleetRunner.* tests and the CI chaos
// stage): 0 = every session healthy; 1 = at least one failed or
// quarantined session, or a solo-parity mismatch; 2 = usage error or an
// unwritable --out/--telemetry/--journal path.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fleet/fleet.hpp"
#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/obs/telemetry.hpp"
#include "tools/runner_args.hpp"

using namespace ironic;

namespace {

std::string hex64(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

obs::json::Value to_json(const fleet::FleetResult& result,
                         const fleet::FleetConfig& config) {
  obs::json::Value::Object doc;
  doc["sessions"] = static_cast<std::uint64_t>(config.sessions);
  doc["threads"] = static_cast<std::uint64_t>(config.threads);
  doc["seed"] = static_cast<std::uint64_t>(config.seed);
  doc["exchanges_per_session"] =
      static_cast<std::uint64_t>(fleet::effective_exchanges(config));
  doc["soak_seconds"] = config.soak_seconds;
  // JSON numbers are doubles; the 64-bit fingerprint rides as a string.
  doc["fingerprint"] = hex64(result.fingerprint);
  doc["failed"] = static_cast<std::uint64_t>(result.failed);
  doc["retried"] = static_cast<std::uint64_t>(result.retried);
  doc["quarantined"] = static_cast<std::uint64_t>(result.quarantined);
  doc["resumed"] = static_cast<std::uint64_t>(result.resumed);
  obs::json::Value::Object by_code;
  for (const auto& [code, count] : result.failures_by_code) {
    by_code[code] = static_cast<std::uint64_t>(count);
  }
  doc["failures_by_code"] = std::move(by_code);
  obs::json::Value::Array failures;
  for (const auto& h : result.health) {
    if (h.ok) continue;
    obs::json::Value::Object row;
    row["session"] = static_cast<std::uint64_t>(h.index);
    row["cohort"] = h.cohort;
    row["code"] = std::string(fleet::failure_code_name(h.code));
    row["quarantined"] = h.quarantined;
    row["attempts"] = static_cast<std::uint64_t>(h.attempts);
    row["message"] = h.message;
    failures.emplace_back(std::move(row));
  }
  doc["failures"] = std::move(failures);
  doc["total_exchanges"] = static_cast<std::uint64_t>(result.total_exchanges);
  doc["lost_measurements"] =
      static_cast<std::uint64_t>(result.lost_measurements);
  doc["lost_rate"] = result.lost_rate;
  doc["recovery_p50_s"] = result.recovery_p50_s;
  doc["recovery_p95_s"] = result.recovery_p95_s;
  doc["recovery_p99_s"] = result.recovery_p99_s;
  doc["wall_seconds"] = result.wall_seconds;
  doc["charge_captures"] = static_cast<std::uint64_t>(result.charge_captures);
  doc["checkpoint_forks"] =
      static_cast<std::uint64_t>(result.checkpoint_forks);
  doc["segment_hits"] = result.segment_hits;
  doc["segment_misses"] = result.segment_misses;
  doc["segment_carried"] = result.segment_carried;
  doc["bioz_hits"] = result.bioz_hits;
  doc["bioz_misses"] = result.bioz_misses;
  doc["bioz_carried"] = result.bioz_carried;
  obs::json::Value::Array cohorts;
  for (const auto& c : result.cohorts) {
    obs::json::Value::Object row;
    row["name"] = c.name;
    row["sessions"] = static_cast<std::uint64_t>(c.sessions);
    row["exchanges"] = static_cast<std::uint64_t>(c.exchanges);
    row["completed"] = static_cast<std::uint64_t>(c.completed);
    row["lost"] = static_cast<std::uint64_t>(c.lost);
    row["retries"] = static_cast<std::uint64_t>(c.retries);
    row["recovered"] = static_cast<std::uint64_t>(c.recovered);
    row["restarts"] = static_cast<std::uint64_t>(c.restarts);
    row["lost_rate"] = c.lost_rate;
    row["recovery_p50_s"] = c.recovery_p50_s;
    row["recovery_p95_s"] = c.recovery_p95_s;
    row["recovery_p99_s"] = c.recovery_p99_s;
    row["mean_recovery_s"] = c.mean_recovery_s;
    row["failed"] = static_cast<std::uint64_t>(c.failed);
    row["quarantined"] = static_cast<std::uint64_t>(c.quarantined);
    row["failure_rate"] = c.failure_rate;
    cohorts.emplace_back(std::move(row));
  }
  doc["cohorts"] = std::move(cohorts);
  return obs::json::Value(std::move(doc));
}

int usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: fleet_runner [--sessions N] [--threads N] [--seed S]\n"
        "                    [--exchanges N | --soak SECONDS]\n"
        "                    [--link inductive|me] [--workload W]\n"
        "                    [--retries N] [--deadline SECS]\n"
        "                    [--chaos RATE] [--chaos-stall RATE]\n"
        "                    [--chaos-attempts N] [--journal FILE]\n"
        "                    [--resume] [--verify-solo N] [--out FILE]\n"
        "                    [--telemetry FILE|-]\n"
     << ironic::tools::CommonArgs::usage_lines()
     << "  --sessions N   concurrent patient sessions (default 64)\n"
        "  --exchanges N  measurement exchanges per session (default 4)\n"
        "  --soak SECS    exchange budget in seconds; overrides --exchanges\n"
        "                 with ceil(SECS / 0.25) exchanges, the inductive\n"
        "                 cadence, for every cohort, so an ME cohort (0.5 s\n"
        "                 cadence) simulates twice SECS\n"
        "  --workload W   sensing front end every cohort drives per\n"
        "                 measurement: lactate (default; spice rectifier +\n"
        "                 potentiostat), lactate-behavioural, or bioz (the\n"
        "                 Fricke tissue ladder; stateless, no charge-up)\n"
        "  --retries N    re-runs granted to a failed session before it is\n"
        "                 quarantined (default 2); retries replay the exact\n"
        "                 original seed, so a retried success is\n"
        "                 bit-identical to a clean run\n"
        "  --deadline S   per-attempt watchdog deadline in wall seconds\n"
        "                 (0 = none; finite, >= 0); an expired attempt is\n"
        "                 contained and classified as `deadline`\n"
        "  --chaos RATE   deterministically make ~RATE of sessions throw\n"
        "                 (seeded; healthy sessions stay bit-identical)\n"
        "  --chaos-stall RATE\n"
        "                 deterministically make ~RATE of sessions stall\n"
        "                 until the watchdog fires (or a 30 s cap)\n"
        "  --chaos-attempts N\n"
        "                 attempts doomed per chaos-picked session; set\n"
        "                 above --retries to force quarantine (default 1)\n"
        "  --journal FILE append-only JSONL run journal: one line per\n"
        "                 terminal session outcome, crash-durable\n"
        "  --resume       replay completed sessions from --journal FILE and\n"
        "                 re-run only the rest; the fleet fingerprint is\n"
        "                 identical to an uninterrupted run\n"
        "  --verify-solo N\n"
        "                 re-run N evenly spaced sessions solo (a private\n"
        "                 charge-up, no plant memos) and compare\n"
        "                 fingerprints; exits 1 on any mismatch\n"
        "exit codes: 0 = all sessions healthy; 1 = failed/quarantined\n"
        "sessions or solo-parity mismatch; 2 = usage error or unwritable\n"
        "--out/--telemetry/--journal path\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetConfig config;
  config.sessions = 64;
  tools::CommonArgs args;
  args.program = "fleet_runner";
  args.seed = config.seed;
  args.threads = config.threads;
  std::size_t verify_solo = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Read the flag's value whole; a malformed one is a usage error.
    const auto count = [&](auto& out) {
      if (tools::parse_count(argv[++i], out)) return true;
      tools::bad_value(args.program, arg, "a count", argv[i]);
      return false;
    };
    const auto real = [&](double& out) {
      if (tools::parse_real(argv[++i], out)) return true;
      tools::bad_value(args.program, arg, "a number", argv[i]);
      return false;
    };
    switch (args.consume(argc, argv, i)) {
      case tools::CommonArgs::Parse::kConsumed: continue;
      case tools::CommonArgs::Parse::kError: return usage(2);
      case tools::CommonArgs::Parse::kNotMine: break;
    }
    if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (arg == "--sessions" && i + 1 < argc) {
      if (!count(config.sessions)) return usage(2);
    } else if (arg == "--exchanges" && i + 1 < argc) {
      if (!count(config.exchanges)) return usage(2);
    } else if (arg == "--soak" && i + 1 < argc) {
      if (!real(config.soak_seconds)) return usage(2);
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!count(config.supervise.max_retries)) return usage(2);
    } else if (arg == "--deadline" && i + 1 < argc) {
      if (!real(config.supervise.session_deadline_s)) return usage(2);
    } else if (arg == "--chaos" && i + 1 < argc) {
      if (!real(config.supervise.chaos.throw_rate)) return usage(2);
    } else if (arg == "--chaos-stall" && i + 1 < argc) {
      if (!real(config.supervise.chaos.stall_rate)) return usage(2);
    } else if (arg == "--chaos-attempts" && i + 1 < argc) {
      if (!count(config.supervise.chaos.fail_attempts)) return usage(2);
    } else if (arg == "--journal" && i + 1 < argc) {
      config.supervise.journal_path = argv[++i];
    } else if (arg == "--resume") {
      config.supervise.resume = true;
    } else if (arg == "--verify-solo" && i + 1 < argc) {
      if (!count(verify_solo)) return usage(2);
    } else if (arg == "--workload" && i + 1 < argc) {
      fault::Workload workload;
      if (!fault::parse_workload(argv[++i], workload)) {
        std::cerr << "fleet_runner: unknown workload '" << argv[i]
                  << "' (want lactate, lactate-behavioural, or bioz)\n";
        return usage(2);
      }
      for (auto& cohort : config.cohorts) cohort.workload = workload;
    } else {
      std::cerr << "fleet_runner: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (config.supervise.resume && config.supervise.journal_path.empty()) {
    std::cerr << "fleet_runner: --resume requires --journal FILE\n";
    return usage(2);
  }
  config.seed = args.seed;
  config.threads = args.threads;
  for (auto& cohort : config.cohorts) cohort.link = args.link;
  if (const int code = args.open_telemetry(); code != 0) return code;

  // Flush-on-abnormal-path: every exit below — including the error
  // ones — drains and closes the sink first, so enqueued telemetry
  // lines are never stranded in the ring by an error return.
  const auto close_sink = [] { obs::TelemetrySink::instance().close(); };

  obs::RunReport run_report("fleet_soak");
  try {
    const auto result = fleet::run_fleet(config);
    std::cerr << "fleet_runner: " << config.sessions << " sessions, "
              << fleet::effective_exchanges(config)
              << " exchanges each: lost_rate=" << result.lost_rate
              << " recovery_p95_s=" << result.recovery_p95_s
              << " charge_captures=" << result.charge_captures
              << " forks=" << result.checkpoint_forks
              << " segment_hits=" << result.segment_hits
              << " segment_misses=" << result.segment_misses
              << " segment_carried=" << result.segment_carried
              << " bioz_hits=" << result.bioz_hits
              << " bioz_misses=" << result.bioz_misses
              << " bioz_carried=" << result.bioz_carried << " wall="
              << result.wall_seconds << "s\n";
    std::cerr << "fleet_runner: health: failed=" << result.failed
              << " retried=" << result.retried
              << " quarantined=" << result.quarantined
              << " resumed=" << result.resumed << "\n";
    for (const auto& h : result.health) {
      if (h.ok) continue;
      std::cerr << "fleet_runner: session " << h.index << " (" << h.cohort
                << ") " << (h.quarantined ? "QUARANTINED" : "FAILED") << " ["
                << fleet::failure_code_name(h.code) << "] after " << h.attempts
                << " attempt(s): " << h.message << "\n";
    }

    // Solo parity: the contract the fleet stands on. Evenly spaced
    // indices cover every cohort (stride vs cohort count are coprime
    // often enough; index 0 and the last session are always included).
    std::size_t mismatches = 0;
    obs::json::Value::Array verified;
    if (verify_solo > 0) {
      const std::size_t n = std::min(verify_solo, config.sessions);
      const std::size_t stride = std::max<std::size_t>(1, config.sessions / n);
      std::size_t checked = 0;
      for (std::size_t i = 0; checked < n && i < config.sessions;
           i += stride, ++checked) {
        const auto solo = fleet::run_solo_session(config, i);
        const auto fleet_fp =
            fleet::fingerprint_session(result.sessions[i]);
        const auto solo_fp = fleet::fingerprint_session(solo);
        obs::json::Value::Object row;
        row["session"] = static_cast<std::uint64_t>(i);
        row["fleet_fingerprint"] = hex64(fleet_fp);
        row["solo_fingerprint"] = hex64(solo_fp);
        row["match"] = fleet_fp == solo_fp;
        verified.emplace_back(std::move(row));
        if (fleet_fp != solo_fp) {
          ++mismatches;
          std::cerr << "fleet_runner: PARITY MISMATCH session " << i
                    << ": fleet " << hex64(fleet_fp) << " != solo "
                    << hex64(solo_fp) << "\n";
        }
      }
      std::cerr << "fleet_runner: verified " << checked
                << " session(s) solo: " << (checked - mismatches)
                << " matched\n";
      run_report.metric("verify_solo.checked", static_cast<double>(checked));
      run_report.metric("verify_solo.mismatches",
                        static_cast<double>(mismatches));
    }

    auto doc_value = to_json(result, config);
    auto& doc = doc_value.as_object();
    if (!verified.empty()) doc["verified_solo"] = std::move(verified);
    std::ostringstream rendered;
    rendered << doc_value.dump(2) << "\n";
    if (const int code = args.write_artifact(
            rendered.str(), std::to_string(config.sessions) + " sessions");
        code != 0) {
      close_sink();
      return code;
    }

    run_report.metric("sessions", static_cast<double>(config.sessions));
    run_report.metric("threads", static_cast<double>(config.threads));
    run_report.metric("exchanges_per_session",
                      static_cast<double>(fleet::effective_exchanges(config)));
    run_report.metric("wall_seconds", result.wall_seconds);
    run_report.metric("sessions_per_second",
                      result.wall_seconds > 0.0
                          ? static_cast<double>(config.sessions) /
                                result.wall_seconds
                          : 0.0);
    run_report.metric("charge_captures",
                      static_cast<double>(result.charge_captures));
    run_report.metric("checkpoint_forks",
                      static_cast<double>(result.checkpoint_forks));
    run_report.metric("segment_hits",
                      static_cast<double>(result.segment_hits));
    run_report.metric("segment_misses",
                      static_cast<double>(result.segment_misses));
    run_report.metric("bioz_hits", static_cast<double>(result.bioz_hits));
    run_report.metric("bioz_misses", static_cast<double>(result.bioz_misses));
    run_report.metric("segment_carried",
                      static_cast<double>(result.segment_carried));
    run_report.metric("bioz_carried",
                      static_cast<double>(result.bioz_carried));
    run_report.metric("lost_rate", result.lost_rate);
    run_report.metric("recovery_p50_s", result.recovery_p50_s);
    run_report.metric("recovery_p95_s", result.recovery_p95_s);
    run_report.metric("recovery_p99_s", result.recovery_p99_s);
    run_report.metric("failed", static_cast<double>(result.failed));
    run_report.metric("retried", static_cast<double>(result.retried));
    run_report.metric("quarantined", static_cast<double>(result.quarantined));
    run_report.metric("resumed", static_cast<double>(result.resumed));
    for (const auto& [code, count] : result.failures_by_code) {
      run_report.metric("failures." + code, static_cast<double>(count));
    }
    for (const auto& c : result.cohorts) {
      run_report.metric(c.name + ".lost_rate", c.lost_rate);
      run_report.metric(c.name + ".recovery_p95_s", c.recovery_p95_s);
      run_report.metric(c.name + ".mean_recovery_s", c.mean_recovery_s);
      run_report.metric(c.name + ".failure_rate", c.failure_rate);
    }
    run_report.note("fingerprint", hex64(result.fingerprint));

    if (mismatches > 0) {
      std::cerr << "fleet_runner: " << mismatches
                << " solo-parity mismatch(es)\n";
      close_sink();
      return EXIT_FAILURE;
    }
    if (result.failed > 0 || result.quarantined > 0) {
      std::cerr << "fleet_runner: " << result.failed << " failed, "
                << result.quarantined << " quarantined session(s)\n";
      close_sink();
      return EXIT_FAILURE;
    }
  } catch (const std::invalid_argument& e) {
    // Config/journal problems are usage errors, distinct from a failed
    // run — the CI wrappers rely on the 1-vs-2 split.
    std::cerr << "fleet_runner: " << e.what() << "\n";
    close_sink();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "fleet_runner: " << e.what() << "\n";
    close_sink();
    return EXIT_FAILURE;
  }
  // Drain and close before the RunReport destructor snapshots the
  // registry, so the obs.telemetry.* counters in the BENCH file are
  // final.
  obs::TelemetrySink::instance().close();
  return 0;
}
