// fault_runner — run a named fault-resilience campaign from the command
// line.
//
//   fault_runner --list
//   fault_runner [--seed S] [--scenarios N] [--exchanges N] [--threads N]
//                [--link inductive|me] [--out FILE] [--telemetry FILE|-]
//                <campaign|all>
//
// Campaigns drive the full stack (link budget, session retry/backoff,
// rectifier transients with checkpoint restart, patch degradation)
// through fault schedules and emit recovery statistics: the console/
// --out JSON carries the per-scenario detail, and the obs run report
// lands in BENCH_fault_resilience.json (recovery rate, mean time to
// recover, exchanges survived per fault class). Output is bit-identical
// for any --threads value.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/campaign.hpp"
#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spice/engine.hpp"
#include "tools/runner_args.hpp"

using namespace ironic;

namespace {

obs::json::Value to_json(const fault::CampaignResult& result,
                         const fault::CampaignConfig& config) {
  obs::json::Value::Object doc;
  doc["campaign"] = result.name;
  doc["seed"] = static_cast<std::uint64_t>(config.seed);
  doc["threads"] = static_cast<std::uint64_t>(config.threads);
  doc["total_exchanges"] = static_cast<std::uint64_t>(result.total_exchanges);
  doc["completed"] = static_cast<std::uint64_t>(result.completed);
  doc["lost_measurements"] =
      static_cast<std::uint64_t>(result.lost_measurements);
  doc["retries"] = static_cast<std::uint64_t>(result.retries);
  doc["restarts"] = static_cast<std::uint64_t>(result.restarts);
  doc["checkpoints"] = static_cast<std::uint64_t>(result.checkpoints);
  doc["recovery_rate"] = result.recovery_rate;
  doc["mean_time_to_recover_s"] = result.mean_time_to_recover;
  // JSON numbers are doubles; a 64-bit fingerprint must ride as a string.
  std::ostringstream fingerprint;
  fingerprint << "0x" << std::hex << std::setw(16) << std::setfill('0')
              << result.fingerprint;
  doc["fingerprint"] = fingerprint.str();
  // Plant memo totals of the call (never fingerprinted).
  doc["segment_hits"] = result.segment_hits;
  doc["segment_misses"] = result.segment_misses;
  doc["bioz_hits"] = result.bioz_hits;
  doc["bioz_misses"] = result.bioz_misses;
  obs::json::Value::Object faults;
  for (int k = 0; k < fault::kFaultKindCount; ++k) {
    faults[fault::fault_kind_name(static_cast<fault::FaultKind>(k))] =
        result.faults_injected[k];
  }
  doc["faults_injected"] = std::move(faults);
  obs::json::Value::Array scenarios;
  for (const auto& s : result.scenarios) {
    obs::json::Value::Object row;
    row["index"] = static_cast<std::uint64_t>(s.index);
    row["exchanges"] = static_cast<std::uint64_t>(s.exchanges);
    row["completed"] = static_cast<std::uint64_t>(s.completed);
    row["lost"] = static_cast<std::uint64_t>(s.lost);
    row["retries"] = static_cast<std::uint64_t>(s.retries);
    row["recovered"] = static_cast<std::uint64_t>(s.recovered);
    row["backoff_seconds"] = s.backoff_seconds;
    row["rate_fallbacks"] = static_cast<std::uint64_t>(s.rate_fallbacks);
    row["restarts"] = static_cast<std::uint64_t>(s.restarts);
    row["checkpoints"] = static_cast<std::uint64_t>(s.checkpoints);
    row["ldo_violations"] = static_cast<std::uint64_t>(s.ldo_violations);
    row["brownouts"] = static_cast<std::uint64_t>(s.brownouts);
    row["final_rate_bps"] = s.final_rate;
    row["sim_time_s"] = s.sim_time;
    scenarios.emplace_back(std::move(row));
  }
  doc["scenarios"] = std::move(scenarios);
  return obs::json::Value(std::move(doc));
}

int usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: fault_runner [--seed S] [--scenarios N] [--exchanges N]\n"
        "                    [--threads N] [--link inductive|me]\n"
        "                    [--out FILE] <campaign|all>\n"
        "       fault_runner --list\n"
     << ironic::tools::CommonArgs::usage_lines()
     << "  --scenarios N  scenarios per campaign (default 3)\n"
        "  --exchanges N  measurement exchanges per scenario (default 10)\n"
        "  --analysis-hints\n"
        "                 run the static-analysis passes on each plant\n"
        "                 circuit and install the dt hint; fingerprints\n"
        "                 must not change (the plant sets its own step)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fault::CampaignConfig config;
  tools::CommonArgs args;
  args.program = "fault_runner";
  args.seed = config.seed;
  args.threads = config.threads;
  std::string name;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Read the flag's value whole; a malformed one is a usage error.
    const auto count = [&](int& out) {
      if (tools::parse_count(argv[++i], out)) return true;
      tools::bad_value(args.program, arg, "a count", argv[i]);
      return false;
    };
    switch (args.consume(argc, argv, i)) {
      case tools::CommonArgs::Parse::kConsumed: continue;
      case tools::CommonArgs::Parse::kError: return usage(2);
      case tools::CommonArgs::Parse::kNotMine: break;
    }
    if (arg == "--list") {
      for (const auto& campaign : fault::campaign_names())
        std::cout << campaign << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (arg == "--scenarios" && i + 1 < argc) {
      if (!count(config.scenarios)) return usage(2);
    } else if (arg == "--exchanges" && i + 1 < argc) {
      if (!count(config.exchanges)) return usage(2);
    } else if (arg == "--analysis-hints") {
      config.analysis_hints = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "fault_runner: unknown option '" << arg << "'\n";
      return usage(2);
    } else if (name.empty()) {
      name = arg;
    } else {
      std::cerr << "fault_runner: more than one campaign named\n";
      return usage(2);
    }
  }
  config.seed = args.seed;
  config.threads = args.threads;
  config.link = args.link;
  if (name.empty()) {
    std::cerr << "fault_runner: no campaign named (try --list)\n";
    return usage(2);
  }
  if (name != "all" && !fault::is_campaign(name)) {
    std::cerr << "fault_runner: unknown campaign '" << name << "' (try --list)\n";
    return 2;
  }
  if (const int code = args.open_telemetry(); code != 0) return code;

  std::vector<std::string> names;
  if (name == "all") {
    names = fault::campaign_names();
  } else {
    names.push_back(name);
  }

  obs::RunReport run_report("fault_resilience");
  run_report.metric("threads", static_cast<double>(config.threads));
  try {
    obs::json::Value::Array campaigns;
    for (const auto& campaign_name : names) {
      fault::CampaignConfig one = config;
      one.name = campaign_name;
      const auto result = fault::run_campaign(one);
      campaigns.emplace_back(to_json(result, one));
      run_report.metric(campaign_name + ".recovery_rate", result.recovery_rate);
      run_report.metric(campaign_name + ".mean_time_to_recover_s",
                        result.mean_time_to_recover);
      run_report.metric(campaign_name + ".lost_measurements",
                        static_cast<double>(result.lost_measurements));
      run_report.metric(campaign_name + ".exchanges_survived",
                        static_cast<double>(result.completed));
      run_report.metric(campaign_name + ".retries",
                        static_cast<double>(result.retries));
      run_report.metric(campaign_name + ".restarts",
                        static_cast<double>(result.restarts));
      std::cerr << "fault_runner: " << campaign_name << " recovery_rate="
                << result.recovery_rate << " lost=" << result.lost_measurements
                << " retries=" << result.retries << " restarts="
                << result.restarts << " segment_hits=" << result.segment_hits
                << " segment_misses=" << result.segment_misses
                << " bioz_hits=" << result.bioz_hits
                << " bioz_misses=" << result.bioz_misses << "\n";
    }
    obs::json::Value::Object doc;
    doc["campaigns"] = std::move(campaigns);
    std::ostringstream rendered;
    rendered << obs::json::Value(std::move(doc)).dump(2) << "\n";

    if (const int code = args.write_artifact(
            rendered.str(), std::to_string(names.size()) + " campaign(s)");
        code != 0) {
      return code;
    }
  } catch (const std::exception& e) {
    std::cerr << "fault_runner: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  // Drain and close before the RunReport destructor snapshots the
  // registry, so the obs.telemetry.* counters in the BENCH file are
  // final (including the flush-on-exit).
  obs::TelemetrySink::instance().close();
  return 0;
}
