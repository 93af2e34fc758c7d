// netlist_analyze: whole-netlist static analysis from the command line,
// and the repo's one netlist checker. Parses each .cir file into a
// Circuit and runs the full analysis pipeline
// (src/spice/analysis/analysis.hpp): lint (the full rule catalog of
// src/spice/lint.hpp), interval operating envelopes, the sparse
// backend's fill and flop counts, and timescale/stiffness planning.
// Parse failures are reported as lint.parse-error diagnostics rather
// than crashes, so a CI sweep over a directory of netlists always
// completes.
//
// Usage:
//   netlist_analyze [options] <netlist.cir> [more.cir ...]
//   netlist_analyze --json --strict examples/netlists/*.cir
//
// Options:
//   --json     machine-readable AnalysisReport on stdout (one object)
//   --strict   warnings also fail the run (exit 1)
//   --dc       analyze for a DC operating point (inductor loops and
//              current cutsets become lint errors)
//   --horizon S  transient horizon for breakpoint density [s] (default
//              1e-3); a value that is not, in full, a finite time > 0
//              exits 2
//   --quiet    print nothing for clean files
//   -          read one netlist from stdin
//
// Exit codes: 0 all files clean (or warnings without --strict),
//             1 analysis errors (or warnings with --strict),
//             2 usage or I/O error.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/spice/analysis/analysis.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/netlist_parser.hpp"
#include "tools/numeric_args.hpp"

namespace {

struct FileReport {
  std::string file;
  ironic::spice::analysis::AnalysisReport report;
};

int usage(std::ostream& os) {
  os << "usage: netlist_analyze [--json] [--strict] [--dc] [--horizon S]\n"
        "                       [--quiet] <netlist.cir> [more.cir ...] | -\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using ironic::spice::Circuit;
  using ironic::spice::Diagnostic;
  using ironic::spice::Severity;
  using ironic::spice::analysis::AnalysisOptions;

  bool json = false, strict = false, quiet = false;
  AnalysisOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--dc") {
      options.dc_context = true;
    } else if (arg == "--horizon" && i + 1 < argc) {
      if (!ironic::tools::parse_real(argv[++i], options.transient_horizon) ||
          !std::isfinite(options.transient_horizon) ||
          !(options.transient_horizon > 0.0)) {
        ironic::tools::bad_value("netlist_analyze", arg,
                                 "a finite time > 0 [s]", argv[i]);
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "netlist_analyze: unknown option '" << arg << "'\n";
      return usage(std::cerr);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage(std::cerr);

  // BENCH_netlist_analyze.json carries the spice.analysis.* counters and
  // the per-pass prof.spice.analysis.<pass>.* zones for the CI schema pin.
  ironic::obs::RunReport run_report("netlist_analyze");

  std::vector<FileReport> results;
  for (const auto& file : files) {
    std::string text;
    if (file == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      text = ss.str();
    } else {
      std::ifstream in(file);
      if (!in) {
        std::cerr << "netlist_analyze: cannot open '" << file << "'\n";
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }

    FileReport fr;
    fr.file = file;
    Circuit circuit;
    try {
      ironic::spice::parse_netlist(circuit, text);
      fr.report = ironic::spice::analysis::analyze(circuit, options);
    } catch (const std::exception& e) {
      fr.report.lint.diagnostics.push_back(
          Diagnostic{Severity::kError, "lint.parse-error", "", "", e.what()});
    }
    results.push_back(std::move(fr));
  }

  std::size_t total_errors = 0, total_warnings = 0;
  for (const auto& fr : results) {
    total_errors += fr.report.errors();
    total_warnings += fr.report.warnings();
  }

  if (json) {
    using ironic::obs::json::Value;
    Value::Array file_array;
    for (const auto& fr : results) {
      // Graft the filename into the report's own JSON, keeping one
      // source of truth for the AnalysisReport schema.
      Value report = Value::parse(fr.report.to_json());
      report.as_object()["file"] = fr.file;
      file_array.push_back(std::move(report));
    }
    Value::Object root;
    root["files"] = std::move(file_array);
    root["errors"] = static_cast<std::uint64_t>(total_errors);
    root["warnings"] = static_cast<std::uint64_t>(total_warnings);
    root["strict"] = strict;
    std::cout << Value(std::move(root)).dump(2) << "\n";
  } else {
    for (const auto& fr : results) {
      const bool clean =
          fr.report.errors() == 0 && fr.report.warnings() == 0;
      if (clean && quiet) continue;
      std::cout << "== " << fr.file << " ==\n" << fr.report.to_text();
    }
    if (!quiet || total_errors + total_warnings > 0) {
      std::cout << results.size() << " file(s): " << total_errors
                << " error(s), " << total_warnings << " warning(s)\n";
    }
  }

  if (total_errors > 0) return 1;
  if (strict && total_warnings > 0) return 1;
  return 0;
}
