// Shared command-line plumbing for the runner family (fault_runner,
// sweep_runner, fleet_runner): the flags every runner repeats
// (--seed/--threads/--link/--out/--telemetry), the exit-2 contract for
// malformed values (parsed whole by tools/numeric_args.hpp) and for
// unwritable artifact and telemetry paths, and the canonical help text
// for the shared flags — one implementation instead of three drifting
// copies.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "src/link/phy.hpp"
#include "src/obs/telemetry.hpp"
#include "tools/numeric_args.hpp"

namespace ironic::tools {

struct CommonArgs {
  std::string program;  // argv[0] basename, for diagnostics
  std::uint64_t seed = 0;
  std::size_t threads = 1;  // 1 = serial, 0 = hardware concurrency
  std::string link = "inductive";  // LinkPhy backend name
  std::string out_path;
  std::string telemetry_path;

  enum class Parse { kConsumed, kNotMine, kError };

  // Consume argv[i] when it is one of the shared flags, advancing i
  // past the flag's value. kError means the diagnostic was already
  // printed (the caller returns its usage). A flag named without its
  // value is kNotMine, so the caller's unknown-option path reports it.
  Parse consume(int argc, char** argv, int& i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      if (!parse_count(argv[++i], seed, 0)) {
        bad_value(program, arg, "a seed", argv[i]);
        return Parse::kError;
      }
      return Parse::kConsumed;
    }
    if (arg == "--threads" && i + 1 < argc) {
      if (!parse_count(argv[++i], threads)) {
        bad_value(program, arg, "a count", argv[i]);
        return Parse::kError;
      }
      return Parse::kConsumed;
    }
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
      return Parse::kConsumed;
    }
    if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_path = argv[++i];
      return Parse::kConsumed;
    }
    if (arg == "--link" && i + 1 < argc) {
      link = argv[++i];
      if (!link::is_backend(link)) {
        std::cerr << program << ": unknown link backend '" << link
                  << "' (want";
        const char* sep = " ";
        for (const auto& name : link::backend_names()) {
          std::cerr << sep << name;
          sep = ", ";
        }
        std::cerr << ")\n";
        return Parse::kError;
      }
      return Parse::kConsumed;
    }
    return Parse::kNotMine;
  }

  // The canonical help block for the shared flags, indented to match
  // the runners' usage text.
  static const char* usage_lines() {
    return "  --seed S       deterministic run seed, decimal or 0x hex (any\n"
           "                 --threads value is bit-identical for a fixed seed)\n"
           "  --threads N    worker threads (1 = serial, 0 = hardware)\n"
           "  --link B       LinkPhy backend for power delivery + modulation:\n"
           "                 inductive (default; ASK/LSK coil link) or me\n"
           "                 (magnetoelectric, PWM backscatter); exits 2 on\n"
           "                 an unknown backend name\n"
           "  --out FILE     write the JSON results to FILE instead of stdout\n"
           "  --telemetry F  stream JSONL telemetry events to F ('-' =\n"
           "                 stdout); exits 2 when F cannot be opened\n";
  }

  // Open the telemetry sink when --telemetry was given. Returns 0, or 2
  // with the diagnostic printed — "could not write the artifact" is
  // distinct from a failed run, and CI wrappers rely on the split.
  int open_telemetry() const {
    if (telemetry_path.empty()) return 0;
    if (!obs::TelemetrySink::instance().open(telemetry_path)) {
      std::cerr << program << ": cannot open '" << telemetry_path
                << "' for telemetry\n";
      return 2;
    }
    return 0;
  }

  // Write `rendered` to --out, or stdout when --out was not given.
  // Returns 0, or 2 with the diagnostic printed when the path cannot be
  // opened or the write fails. `what` names the artifact in the
  // success line ("3 campaign(s)", "1000 sessions", ...).
  int write_artifact(const std::string& rendered, const std::string& what) const {
    if (out_path.empty()) {
      std::cout << rendered;
      return 0;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << program << ": cannot open '" << out_path
                << "' for writing\n";
      return 2;
    }
    out << rendered;
    if (!out) {
      std::cerr << program << ": write to '" << out_path << "' failed\n";
      return 2;
    }
    std::cout << program << ": wrote " << what << " to " << out_path << "\n";
    return 0;
  }
};

}  // namespace ironic::tools
