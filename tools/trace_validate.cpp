// Validates the telemetry artifacts the observability subsystem emits:
//   - Chrome trace_event JSON (object with "traceEvents")
//   - BENCH_<name>.json run reports (schema ironic.run_report/1)
//   - JSONL metric dumps (*.jsonl, one object per line)
// Usage: trace_validate [--min-metrics N] [--min-events N] [--require-obs]
//                       [--require <metric>]... <file>...
//        trace_validate [--require-obs] --compare OLD NEW
// --require asserts that a named metric is present in every run report or
// JSONL dump checked (repeatable) — CI uses it to pin the solver-layer
// telemetry (spice.solver.*), the streaming-sink counters
// (obs.telemetry.*), the profiler zone totals (prof.<zone>.*), and the
// cohort aggregates (cohort.*) to the artifacts the benches emit.
// --require-obs asserts that every run report checked was produced by a
// binary with observability compiled in (obs_compiled_in == true) — the
// gate that keeps obs-off stubs out of the committed BENCH_*.json files.
// Exits 0 when every file parses and satisfies its structural checks —
// the ctest smoke target runs this over a traced telemetry_session run.
//
// --compare OLD NEW checks two run reports and prints every metric, extra
// and the wall time that differ between them (the prof.<zone>.* gauges
// give the per-zone deltas). Counters are the program's exact counts
// (steps, iterations, memo hits), so a counter that moved fails: exit 1.
// exec.* counters (they count scheduling, such as steals) only warn, as
// gauges, histograms, extras and wall time do; no counter times
// anything, since the profiler zones carry every per-layer time. A name
// on one side only is listed and does not fail.
//
// A malformed --min-metrics/--min-events value (not a whole
// non-negative integer) is a usage error: exit 2.
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.hpp"
#include "tools/numeric_args.hpp"

using ironic::obs::json::JsonError;
using ironic::obs::json::Value;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Chrome trace: every event needs name/ph/pid and a numeric ts; complete
// events ('X') need a numeric dur.
std::size_t validate_trace(const Value& root) {
  const auto& events = root.at("traceEvents").as_array();
  std::size_t real_events = 0;
  for (const auto& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph.size() != 1) throw std::runtime_error("bad phase '" + ph + "'");
    (void)ev.at("name").as_string();
    (void)ev.at("pid").as_double();
    if (ph == "M") continue;  // metadata has no timestamp requirement
    if (ev.at("ts").as_double() < 0.0) throw std::runtime_error("negative ts");
    if (ph == "X") (void)ev.at("dur").as_double();
    // Flow events must carry the pairing id.
    if (ph == "s" || ph == "f") (void)ev.at("id").as_double();
    ++real_events;
  }
  return real_events;
}

// Every --require name must appear in the collected metric-name set.
void check_required(const std::set<std::string>& names,
                    const std::vector<std::string>& required) {
  for (const auto& want : required) {
    if (names.count(want) == 0) {
      throw std::runtime_error("required metric '" + want + "' missing");
    }
  }
}

// Run report: identity fields plus a metrics array of {name, type, value}.
// Returns the distinct metric names seen.
std::set<std::string> validate_report(const Value& root, bool require_obs) {
  if (root.at("schema").as_string() != "ironic.run_report/1") {
    throw std::runtime_error("unknown report schema");
  }
  (void)root.at("name").as_string();
  (void)root.at("git_sha").as_string();
  if (root.at("wall_seconds").as_double() < 0.0) {
    throw std::runtime_error("negative wall_seconds");
  }
  if (require_obs) {
    if (!root.contains("obs_compiled_in") ||
        !root.at("obs_compiled_in").as_bool()) {
      throw std::runtime_error(
          "report was produced without obs compiled in (obs_compiled_in)");
    }
  }
  // Profiler breakdown, when present: structural sanity per zone.
  if (root.contains("profile")) {
    for (const auto& zone : root.at("profile").as_array()) {
      (void)zone.at("zone").as_string();
      const double calls = zone.at("calls").as_double();
      const double inclusive = zone.at("inclusive_ns").as_double();
      const double exclusive = zone.at("exclusive_ns").as_double();
      if (calls < 1.0) {
        throw std::runtime_error("profile zone '" +
                                 zone.at("zone").as_string() +
                                 "' reported with zero calls");
      }
      if (exclusive > inclusive + 0.5) {
        throw std::runtime_error("profile zone '" +
                                 zone.at("zone").as_string() +
                                 "' exclusive time exceeds inclusive");
      }
    }
  }
  std::set<std::string> names;
  for (const auto& m : root.at("metrics").as_array()) {
    (void)m.at("value").as_double();
    const std::string& type = m.at("type").as_string();
    if (type != "counter" && type != "gauge" && type != "histogram") {
      throw std::runtime_error("unknown metric type '" + type + "'");
    }
    names.insert(m.at("name").as_string());
  }
  for (const auto& [k, v] : root.at("extras").as_object()) {
    (void)v.as_double();
    names.insert(k);
  }
  return names;
}

// Returns (row count, distinct metric names).
std::pair<std::size_t, std::set<std::string>> validate_jsonl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t rows = 0;
  std::set<std::string> names;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const Value row = Value::parse(line);
    names.insert(row.at("name").as_string());
    (void)row.at("type").as_string();
    ++rows;
  }
  return {rows, names};
}

// One comparable reading of a run report: a metric (its merged value),
// an extra, or the wall time.
struct Reading {
  std::string kind;  // counter, gauge, histogram, extra, wall
  double value = 0.0;
};

std::map<std::string, Reading> readings(const Value& root) {
  std::map<std::string, Reading> out;
  for (const auto& m : root.at("metrics").as_array()) {
    out[m.at("name").as_string()] = {m.at("type").as_string(),
                                     m.at("value").as_double()};
  }
  for (const auto& [name, v] : root.at("extras").as_object()) {
    out["extras." + name] = {"extra", v.as_double()};
  }
  out["wall_seconds"] = {"wall", root.at("wall_seconds").as_double()};
  return out;
}

// Counters the comparison holds exact: every counter but exec.*.
bool exact(const std::string& name, const Reading& reading) {
  return reading.kind == "counter" && name.rfind("exec.", 0) != 0;
}

std::string delta(double from, double to) {
  std::ostringstream os;
  os << std::setprecision(10) << from << " -> " << to << " ("
     << std::showpos << to - from;
  if (from != 0.0) {
    os << ", " << std::setprecision(3) << 100.0 * (to - from) / std::fabs(from)
       << "%";
  }
  os << ")";
  return os.str();
}

// Returns 0 when every exact counter is equal, 1 otherwise.
int compare(const std::string& old_path, const std::string& new_path,
            bool require_obs) {
  const Value old_root = Value::parse(read_file(old_path));
  const Value new_root = Value::parse(read_file(new_path));
  (void)validate_report(old_root, require_obs);
  (void)validate_report(new_root, require_obs);
  const auto before = readings(old_root);
  const auto after = readings(new_root);
  std::size_t equal = 0;
  std::size_t failed = 0;
  std::size_t warned = 0;
  std::size_t only_old = 0;
  std::size_t only_new = 0;
  for (const auto& [name, was] : before) {
    const auto now = after.find(name);
    if (now == after.end()) {
      ++only_old;
      std::cout << "only in " << old_path << ": " << was.kind << " " << name
                << "\n";
    } else if (now->second.value == was.value) {
      ++equal;
    } else {
      const bool fail = exact(name, was) || exact(name, now->second);
      ++(fail ? failed : warned);
      std::cout << (fail ? "FAIL " : "warn ") << std::left << std::setw(9)
                << now->second.kind << " " << name << ": "
                << delta(was.value, now->second.value) << "\n";
    }
  }
  for (const auto& [name, now] : after) {
    if (before.count(name) == 0) {
      ++only_new;
      std::cout << "only in " << new_path << ": " << now.kind << " " << name
                << "\n";
    }
  }
  std::cout << "compare " << old_path << " -> " << new_path << ": " << equal
            << " equal, " << failed << " exact counter(s) differ, " << warned
            << " other change(s), " << only_old << " only in old, " << only_new
            << " only in new\n";
  return failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t min_metrics = 1;
  std::size_t min_events = 1;
  bool require_obs = false;
  std::vector<std::string> required;
  std::vector<std::string> files;
  std::vector<std::string> compared;  // OLD NEW
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare") {
      if (i + 2 >= argc) {
        std::cerr << "trace_validate: --compare wants OLD and NEW\n";
        return 2;
      }
      compared = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if ((arg == "--min-metrics" || arg == "--min-events") &&
               i + 1 < argc) {
      auto& floor = arg == "--min-metrics" ? min_metrics : min_events;
      if (!ironic::tools::parse_count(argv[++i], floor)) {
        ironic::tools::bad_value("trace_validate", arg, "a count", argv[i]);
        return 2;
      }
    } else if (arg == "--require" && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else if (arg == "--require-obs") {
      require_obs = true;
    } else {
      files.push_back(arg);
    }
  }
  if (!compared.empty() && files.empty()) {
    try {
      return compare(compared[0], compared[1], require_obs);
    } catch (const std::exception& e) {
      std::cerr << "trace_validate: --compare: " << e.what() << "\n";
      return 2;
    }
  }
  if (files.empty() || !compared.empty()) {
    std::cerr << "usage: trace_validate [--min-metrics N] [--min-events N] "
                 "[--require-obs] [--require <metric>]... <file>...\n"
                 "       trace_validate [--require-obs] --compare OLD NEW\n";
    return 2;
  }

  for (const auto& path : files) {
    try {
      const std::string text = read_file(path);
      if (path.size() > 6 && path.substr(path.size() - 6) == ".jsonl") {
        const auto [rows, names] = validate_jsonl(text);
        if (rows < min_metrics) {
          throw std::runtime_error("only " + std::to_string(rows) + " metric rows");
        }
        check_required(names, required);
        std::cout << path << ": OK (" << rows << " metric rows)\n";
        continue;
      }
      const Value root = Value::parse(text);
      if (root.contains("traceEvents")) {
        const std::size_t events = validate_trace(root);
        if (events < min_events) {
          throw std::runtime_error("only " + std::to_string(events) + " events");
        }
        std::cout << path << ": OK (" << events << " trace events)\n";
      } else {
        const auto names = validate_report(root, require_obs);
        if (names.size() < min_metrics) {
          throw std::runtime_error("only " + std::to_string(names.size()) +
                                   " distinct metrics (need " +
                                   std::to_string(min_metrics) + ")");
        }
        check_required(names, required);
        std::cout << path << ": OK (" << names.size() << " distinct metrics)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << path << ": INVALID — " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
