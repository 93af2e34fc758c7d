#include "src/obs/report.hpp"

#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/obs/json.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"
#include "src/util/log.hpp"

#ifndef IRONIC_GIT_SHA
#define IRONIC_GIT_SHA "unknown"
#endif
#ifndef IRONIC_BUILD_TYPE
#define IRONIC_BUILD_TYPE "unknown"
#endif
#ifndef IRONIC_COMPILER
#define IRONIC_COMPILER "unknown"
#endif
#ifndef IRONIC_CXX_FLAGS
#define IRONIC_CXX_FLAGS "unknown"
#endif

namespace ironic::obs {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  // Read once, in the RunReport constructor at the top of main(), before
  // any worker threads exist — nothing mutates the environment after.
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && *v != '\0' ? std::string(v) : fallback;
}

// The "model name" of the first CPU in /proc/cpuinfo; "unknown" where
// there is no such file.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

// What built this binary (configure-time definitions) and the host it
// ran on (read now), so a report's numbers carry their provenance.
json::Value::Object build_block() {
  json::Value::Object build;
  build["type"] = IRONIC_BUILD_TYPE;
  build["compiler"] = IRONIC_COMPILER;
  build["cxx_flags"] = IRONIC_CXX_FLAGS;
  build["cpu_model"] = cpu_model();
  build["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  return build;
}

}  // namespace

const char* build_git_sha() { return IRONIC_GIT_SHA; }

RunReport::RunReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  install_log_bridge();
  const std::string trace = env_or("IRONIC_TRACE", "");
  if (!trace.empty() && trace != "0") {
    trace_path_ = trace == "1" ? name_ + ".trace.json" : trace;
    auto& recorder = TraceRecorder::instance();
    if (!recorder.enabled()) {
      recorder.enable();
      trace_enabled_here_ = true;
    }
  }
}

RunReport::~RunReport() { write(); }

void RunReport::metric(const std::string& key, double value) {
  extra_metrics_[key] = value;
}

void RunReport::note(const std::string& key, std::string value) {
  notes_[key] = std::move(value);
}

double RunReport::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::string RunReport::report_path() const {
  if (env_or("IRONIC_REPORT", "1") == "0") return "";
  const std::string dir = env_or("IRONIC_REPORT_DIR", "");
  const std::string file = "BENCH_" + name_ + ".json";
  return dir.empty() ? file : dir + "/" + file;
}

bool RunReport::write() {
  if (written_) return true;
  written_ = true;
  bool ok = true;

  if (!trace_path_.empty()) {
    ok &= TraceRecorder::instance().write_chrome_trace_file(trace_path_);
    if (trace_enabled_here_) TraceRecorder::instance().disable();
  }

  const std::string metrics_path = env_or("IRONIC_METRICS", "");
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (os) {
      MetricsRegistry::instance().write_jsonl(os);
    } else {
      util::Log::warn("RunReport: cannot open metrics file " + metrics_path);
      ok = false;
    }
  }

  const std::string path = report_path();
  if (path.empty()) return ok;
  {
    // IRONIC_REPORT_DIR may not exist yet; create it rather than fail.
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }

  json::Value::Object root;
  root["schema"] = "ironic.run_report/1";
  root["name"] = name_;
  root["git_sha"] = build_git_sha();
  root["timestamp_unix"] = static_cast<double>(std::time(nullptr));
  root["wall_seconds"] = elapsed_seconds();
  root["obs_compiled_in"] = kEnabled;
  root["build"] = build_block();
  if (!trace_path_.empty()) root["trace_file"] = trace_path_;

  json::Value::Object extras;
  for (const auto& [k, v] : extra_metrics_) extras[k] = v;
  root["extras"] = std::move(extras);

  json::Value::Object notes;
  for (const auto& [k, v] : notes_) notes[k] = v;
  root["notes"] = std::move(notes);

  // Fold the profiler zone totals in as prof.<zone>.* gauges first, so
  // the metrics snapshot below (and trace_validate --require pins)
  // always see the per-zone breakdown; then attach the flame-style
  // "profile" array for human/tooling consumption.
  const auto zones = profiler_snapshot();
  profiler_mirror_to_registry(MetricsRegistry::instance());
  json::Value::Array profile;
  for (const auto& zone : zones) {
    json::Value::Object row;
    row["zone"] = zone.name;
    row["calls"] = static_cast<double>(zone.calls);
    row["inclusive_ns"] = static_cast<double>(zone.inclusive_ns);
    row["exclusive_ns"] = static_cast<double>(zone.exclusive_ns);
    row["threads"] = static_cast<double>(zone.threads);
    profile.emplace_back(std::move(row));
  }
  root["profile"] = std::move(profile);

  json::Value::Array metrics;
  for (const auto& s : MetricsRegistry::instance().snapshot()) {
    json::Value::Object m;
    m["name"] = s.name;
    m["type"] = s.type;
    m["value"] = s.value;
    if (!s.labels.empty()) m["labels"] = s.labels;
    if (s.type == "histogram") {
      m["count"] = static_cast<double>(s.count);
      m["min"] = s.min;
      m["max"] = s.max;
      m["p50"] = s.p50;
      m["p95"] = s.p95;
      m["p99"] = s.p99;
    }
    metrics.emplace_back(std::move(m));
  }
  root["metrics"] = std::move(metrics);

  std::ofstream os(path);
  if (!os) {
    util::Log::warn("RunReport: cannot open report file " + path);
    return false;
  }
  os << json::Value(std::move(root)).dump(2) << "\n";
  return ok && os.good();
}

}  // namespace ironic::obs
