// Machine-readable run telemetry for benches and examples.
//
// Construct one RunReport at the top of main(); on destruction it writes
// `BENCH_<name>.json` — wall time, the full metrics-registry snapshot,
// any extra scalars/notes the program attached, the git SHA the binary
// was built from, and a `build` block (build type, compiler and version,
// C++ flags, CPU model, hardware_concurrency) — seeding the perf
// trajectory future PRs diff against.
//
// Environment contract (also documented in README.md "Observability"):
//   IRONIC_TRACE=<path>   enable trace recording; the Chrome trace JSON
//                         is written to <path> when the report closes
//                         (IRONIC_TRACE=1 writes <name>.trace.json).
//   IRONIC_METRICS=<path> additionally dump the registry as JSONL.
//   IRONIC_REPORT_DIR=<dir>  where BENCH_<name>.json lands (default cwd).
//   IRONIC_REPORT=0       suppress the report file entirely.
#pragma once

#include <chrono>
#include <map>
#include <string>

#include "src/obs/metrics.hpp"

namespace ironic::obs {

// The git SHA baked in at configure time ("unknown" outside a checkout).
const char* build_git_sha();

class RunReport {
 public:
  explicit RunReport(std::string name);
  RunReport(const RunReport&) = delete;
  RunReport& operator=(const RunReport&) = delete;
  // Writes the report (unless suppressed) and any requested trace/metrics
  // artifacts. I/O failures are logged, never thrown.
  ~RunReport();

  // Attach a program-specific scalar (e.g. steps_per_sec) or note.
  void metric(const std::string& key, double value);
  void note(const std::string& key, std::string value);

  // Wall seconds since construction.
  double elapsed_seconds() const;

  // Where the report will be written ("" when suppressed).
  std::string report_path() const;

  // Write immediately instead of at destruction (idempotent; the
  // destructor then does nothing). Returns false on I/O failure.
  bool write();

 private:
  std::string name_;
  std::map<std::string, double> extra_metrics_;
  std::map<std::string, std::string> notes_;
  std::string trace_path_;   // "" -> tracing not requested by env
  bool trace_enabled_here_ = false;
  bool written_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ironic::obs
