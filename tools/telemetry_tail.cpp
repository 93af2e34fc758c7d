// telemetry_tail — filter and pretty-print a streaming JSONL telemetry
// file produced by `fault_runner --telemetry` / `sweep_runner
// --telemetry` (or any TelemetrySink output).
//
//   telemetry_tail [--stream S] [--event E] [--grep SUBSTR]
//                  [--stats] [--raw] [--follow [--idle-exit SECS]] <file|->
//
// Each input line is one JSON object with at least {"ts_us", "stream",
// "event"}. Default output is a human-oriented rendering:
//
//   [  1.234s] fault.session  rate_fallback   quality=0.42 rate_bps=50000
//
// --stream / --event select matching rows (exact match, repeatable
// semantics: last flag wins), --grep keeps rows whose raw text contains
// the substring, --raw echoes the matching JSON lines unchanged, and
// --stats appends per-stream/event counts. A torn final line (the
// producer was killed mid-write) is tolerated and counted, not fatal.
//
// --follow keeps the file open after EOF and emits new rows as the
// producer appends them (a live fleet soak), polling every 50 ms. A
// line is only consumed once its newline has landed — a partially
// flushed tail is left in the file, never half-parsed. --idle-exit S
// stops following after S seconds with no new data (0 = follow
// forever), so scripted consumers (the CI fleet stage) terminate.
// Follow requires a real file; stdin is already a stream.
//
// Exits 2 when the input cannot be opened, matching the runners'
// unwritable-path contract, or when the --idle-exit value is not, in
// full, a number of seconds >= 0 (the runners' malformed-value
// contract); 1 on other malformed flags.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "tools/numeric_args.hpp"

using ironic::obs::json::Value;

namespace {

int usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: telemetry_tail [--stream S] [--event E] [--grep SUBSTR]\n"
        "                      [--stats] [--raw] [--follow [--idle-exit S]]\n"
        "                      <file|->\n"
        "  --stream S    only rows whose \"stream\" equals S\n"
        "  --event E     only rows whose \"event\" equals E\n"
        "  --grep T      only rows whose raw JSON contains T\n"
        "  --raw         echo matching JSON lines instead of pretty text\n"
        "  --stats       append per-stream/event row counts\n"
        "  --follow      keep the file open and emit rows as they are\n"
        "                appended (files only, not stdin)\n"
        "  --idle-exit S stop following after S seconds without new data\n"
        "                (default 0 = follow forever)\n"
        "  file          JSONL telemetry stream; '-' reads stdin\n";
  return code;
}

// Render one parsed row as a fixed-width human line; unknown extra
// fields ride along as key=value pairs in row order.
std::string pretty(const Value& row) {
  std::ostringstream os;
  const double ts_s = row.contains("ts_us") ? row.at("ts_us").as_double() / 1e6
                                            : 0.0;
  os << '[' << std::setw(9) << std::fixed << std::setprecision(3) << ts_s
     << "s] ";
  const std::string stream =
      row.contains("stream") ? row.at("stream").as_string() : "?";
  const std::string event =
      row.contains("event") ? row.at("event").as_string() : "?";
  os << std::left << std::setw(14) << stream << ' ' << std::setw(16) << event;
  for (const auto& [key, value] : row.as_object()) {
    if (key == "ts_us" || key == "stream" || key == "event") continue;
    os << ' ' << key << '=';
    if (value.is_string()) {
      os << value.as_string();
    } else {
      os << value.dump();
    }
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string stream_filter;
  std::string event_filter;
  std::string grep;
  bool stats = false;
  bool raw = false;
  bool follow = false;
  double idle_exit = 0.0;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (arg == "--stream" && i + 1 < argc) {
      stream_filter = argv[++i];
    } else if (arg == "--event" && i + 1 < argc) {
      event_filter = argv[++i];
    } else if (arg == "--grep" && i + 1 < argc) {
      grep = argv[++i];
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--raw") {
      raw = true;
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--idle-exit" && i + 1 < argc) {
      if (!ironic::tools::parse_real(argv[++i], idle_exit) ||
          !(idle_exit >= 0.0)) {
        ironic::tools::bad_value("telemetry_tail", arg, "seconds >= 0",
                                 argv[i]);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "telemetry_tail: unknown option '" << arg << "'\n";
      return usage(1);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "telemetry_tail: more than one input named\n";
      return usage(1);
    }
  }
  if (path.empty()) {
    std::cerr << "telemetry_tail: no input named\n";
    return usage(1);
  }
  if (follow && path == "-") {
    std::cerr << "telemetry_tail: --follow needs a file (stdin is already a "
                 "stream)\n";
    return usage(1);
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "telemetry_tail: cannot open '" << path << "'\n";
      return 2;
    }
    in = &file;
  }

  std::size_t matched = 0;
  std::size_t total = 0;
  std::size_t malformed = 0;
  std::map<std::string, std::size_t> counts;  // "stream/event" -> rows

  const auto process_line = [&](const std::string& line) {
    if (line.empty()) return;
    ++total;
    Value row;
    try {
      row = Value::parse(line);
    } catch (const std::exception&) {
      ++malformed;
      return;
    }
    if (!row.is_object()) {
      ++malformed;
      return;
    }
    const std::string stream =
        row.contains("stream") ? row.at("stream").as_string() : "?";
    const std::string event =
        row.contains("event") ? row.at("event").as_string() : "?";
    if (!stream_filter.empty() && stream != stream_filter) return;
    if (!event_filter.empty() && event != event_filter) return;
    if (!grep.empty() && line.find(grep) == std::string::npos) return;
    ++matched;
    ++counts[stream + "/" + event];
    if (raw) {
      std::cout << line << "\n";
    } else {
      std::cout << pretty(row) << "\n";
    }
    std::cout.flush();
  };

  std::string line;
  if (!follow) {
    while (std::getline(*in, line)) process_line(line);
  } else {
    // Tail the growing file: consume only newline-terminated lines (a
    // getline that hits EOF mid-line is a partial flush — rewind and
    // wait for the rest), poll for appended data, and give up after
    // idle_exit seconds of silence when one was requested.
    auto last_data = std::chrono::steady_clock::now();
    std::streampos pos = file.tellg();
    while (true) {
      bool consumed = false;
      if (std::getline(file, line) && !file.eof()) {
        pos = file.tellg();
        process_line(line);
        consumed = true;
      } else {
        file.clear();
        file.seekg(pos);
      }
      if (consumed) {
        last_data = std::chrono::steady_clock::now();
        continue;
      }
      if (idle_exit > 0.0) {
        const std::chrono::duration<double> idle =
            std::chrono::steady_clock::now() - last_data;
        if (idle.count() >= idle_exit) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  if (stats) {
    std::cout << "---\n";
    for (const auto& [key, n] : counts) {
      std::cout << std::left << std::setw(32) << key << ' ' << n << "\n";
    }
    std::cout << "matched " << matched << " of " << total << " rows";
    if (malformed > 0) std::cout << " (" << malformed << " malformed)";
    std::cout << "\n";
  }
  return 0;
}
