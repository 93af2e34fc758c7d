// sweep_runner — run a named parameter sweep from the command line.
//
//   sweep_runner --list
//   sweep_runner [--threads N] [--format table|csv|json] [--out FILE]
//                [--telemetry FILE|-] <name>
//
// The named sweeps mirror the paper benches (power vs distance, the coil
// design space, the tolerance Monte Carlo) but go through the declarative
// exec::Sweep layer, so the output is bit-identical for any --threads
// value — including 1 — and lands wherever --out points as a table, CSV,
// or a JSON document (obs json model).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/tolerance.hpp"
#include "src/exec/exec.hpp"
#include "src/magnetics/coil_design.hpp"
#include "src/magnetics/link.hpp"
#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spice/engine.hpp"
#include "src/util/table.hpp"
#include "tools/runner_args.hpp"

using namespace ironic;

namespace {

struct SweepDef {
  exec::Sweep sweep;
  std::vector<std::string> columns;
  exec::SweepRowFn row;
};

struct NamedSweep {
  const char* name;
  const char* description;
  SweepDef (*make)();
};

// E2: received power vs coil distance, air and sirloin, fixed drive.
SweepDef make_power_distance() {
  exec::Sweep s("power_distance");
  s.axis(exec::Axis::list(
      "distance_mm", {3.0, 4.0, 6.0, 8.0, 10.0, 13.0, 17.0, 21.0, 25.0, 30.0}));
  magnetics::LinkConfig cfg;
  cfg.distance = 6e-3;
  magnetics::InductiveLink calib{cfg};
  const double load = 150.0;
  const double drive = calib.drive_for_power(15e-3, load);
  exec::SweepRowFn row = [cfg, load, drive](const exec::SweepPoint& p) {
    const double d = p["distance_mm"] * 1e-3;
    magnetics::InductiveLink link{cfg};
    link.set_distance(d);
    const auto air = link.analyze(drive, load);
    link.set_tissue(magnetics::TissueSlab(magnetics::sirloin_properties(), d));
    const auto meat = link.analyze(drive, load);
    return std::vector<std::string>{
        util::Table::cell(p["distance_mm"], 3),
        util::Table::cell(air.power_delivered * 1e3, 4),
        util::Table::cell(meat.power_delivered * 1e3, 4),
        util::Table::cell(air.coupling, 3)};
  };
  return {std::move(s),
          {"distance_mm", "P_air_mW", "P_sirloin_mW", "k"},
          std::move(row)};
}

// E14: the implant-outline coil design space (L, Q, SRF per geometry).
SweepDef make_coil_design() {
  exec::Sweep s("coil_design");
  s.axis(exec::Axis::list("layers", {1, 2, 3, 4, 5, 6, 7, 8}))
      .axis(exec::Axis::list("turns", {1, 2, 3, 4, 5, 6}))
      .axis(exec::Axis::list("width_um", {80.0, 120.0, 160.0, 200.0}));
  const magnetics::CoilSpec base = magnetics::implant_coil_spec();
  exec::SweepRowFn row = [base](const exec::SweepPoint& p) {
    magnetics::CoilSpec spec = base;
    spec.layers = static_cast<int>(p["layers"]);
    spec.turns_per_layer = static_cast<int>(p["turns"]);
    spec.trace_width = p["width_um"] * 1e-6;
    spec.turn_spacing = spec.trace_width;
    double l = 0.0, q = 0.0, srf = 0.0;
    bool fits = false;
    try {
      const magnetics::Coil coil{spec};
      l = coil.inductance();
      q = coil.quality_factor(5e6);
      srf = coil.self_resonance_frequency();
      fits = true;
    } catch (const std::invalid_argument&) {
      // geometry outside the 38 x 2 mm outline — report a non-fitting row
    }
    return std::vector<std::string>{
        util::Table::cell(p["layers"], 2),    util::Table::cell(p["turns"], 2),
        util::Table::cell(p["width_um"], 4),  util::Table::cell(l * 1e6, 5),
        util::Table::cell(q, 5),              util::Table::cell(srf / 1e6, 5),
        util::Table::cell(fits)};
  };
  return {std::move(s),
          {"layers", "turns", "width_um", "L_uH", "Q_5MHz", "SRF_MHz", "fits"},
          std::move(row)};
}

// E12: the component-tolerance Monte Carlo, one draw per point. Draw k
// uses the point's own RNG stream, so the yield table is reproducible
// for any thread count.
SweepDef make_tolerance_mc() {
  exec::Sweep s("tolerance_mc");
  std::vector<double> draws(20);
  for (std::size_t i = 0; i < draws.size(); ++i)
    draws[i] = static_cast<double>(i);
  s.axis(exec::Axis::list("draw", std::move(draws)));
  const core::ToleranceSpec spec;
  const core::EndToEndConfig base = core::shortened_fig11_config();
  exec::SweepRowFn row = [spec, base](const exec::SweepPoint& p) {
    const auto r = core::evaluate_tolerance_draw(spec, base, p.rng());
    return std::vector<std::string>{
        util::Table::cell(p["draw"], 2),      util::Table::cell(r.charged),
        util::Table::cell(r.downlink_ok),     util::Table::cell(r.uplink_ok),
        util::Table::cell(r.regulation_ok),   util::Table::cell(r.vo_min, 4),
        util::Table::cell(r.t_charge * 1e6, 4)};
  };
  return {std::move(s),
          {"draw", "charged", "downlink", "uplink", "regulation", "vo_min_V",
           "t_charge_us"},
          std::move(row)};
}

constexpr NamedSweep kSweeps[] = {
    {"power_distance", "E2: received power vs distance, air and sirloin",
     make_power_distance},
    {"coil_design", "E14: implant coil design space (L, Q, SRF per geometry)",
     make_coil_design},
    {"tolerance_mc", "E12: component-tolerance Monte Carlo, one draw per point",
     make_tolerance_mc},
};

obs::json::Value to_json(const exec::SweepResult& result,
                         const std::vector<std::string>& columns,
                         std::size_t threads) {
  obs::json::Value::Object doc;
  doc["sweep"] = result.name;
  doc["points"] = static_cast<std::uint64_t>(result.points);
  doc["threads"] = static_cast<std::uint64_t>(threads);
  doc["wall_seconds"] = result.wall_seconds;
  obs::json::Value::Array cols;
  for (const auto& c : columns) cols.emplace_back(c);
  doc["columns"] = std::move(cols);
  obs::json::Value::Array rows;
  for (const auto& r : result.table.data()) {
    obs::json::Value::Array cells;
    for (const auto& cell : r) cells.emplace_back(cell);
    rows.emplace_back(std::move(cells));
  }
  doc["rows"] = std::move(rows);
  return obs::json::Value(std::move(doc));
}

int usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: sweep_runner [--threads N] [--format table|csv|json]\n"
        "                    [--out FILE] <sweep>\n"
        "       sweep_runner --list\n"
     << ironic::tools::CommonArgs::usage_lines()
     << "  --format F     table (default), csv, or json\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  tools::CommonArgs args;
  args.program = "sweep_runner";
  std::string format = "table";
  std::string name;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (args.consume(argc, argv, i)) {
      case tools::CommonArgs::Parse::kConsumed: continue;
      case tools::CommonArgs::Parse::kError: return usage(2);
      case tools::CommonArgs::Parse::kNotMine: break;
    }
    if (arg == "--list") {
      for (const auto& s : kSweeps)
        std::cout << s.name << "  -  " << s.description << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sweep_runner: unknown option '" << arg << "'\n";
      return usage(2);
    } else if (name.empty()) {
      name = arg;
    } else {
      std::cerr << "sweep_runner: more than one sweep named\n";
      return usage(2);
    }
  }
  const std::size_t threads = args.threads;
  if (name.empty()) {
    std::cerr << "sweep_runner: no sweep named (try --list)\n";
    return usage(2);
  }
  if (format != "table" && format != "csv" && format != "json") {
    std::cerr << "sweep_runner: unknown format '" << format << "'\n";
    return usage(2);
  }

  const NamedSweep* chosen = nullptr;
  for (const auto& s : kSweeps)
    if (name == s.name) chosen = &s;
  if (chosen == nullptr) {
    std::cerr << "sweep_runner: unknown sweep '" << name << "' (try --list)\n";
    return EXIT_FAILURE;
  }
  if (const int code = args.open_telemetry(); code != 0) return code;

  obs::RunReport run_report("sweep_runner");
  try {
    SweepDef def = chosen->make();
    exec::SweepOptions opts;
    opts.threads = threads;
    const auto result = def.sweep.run(def.columns, def.row, opts);

    std::ostringstream rendered;
    if (format == "table") {
      result.table.print(rendered);
      rendered << "(" << result.points << " points, "
               << util::Table::cell(result.wall_seconds * 1e3, 4) << " ms, "
               << (threads == 1 ? std::string("serial")
                                : std::to_string(threads) + " threads")
               << ")\n";
    } else if (format == "csv") {
      result.table.print_csv(rendered);
    } else {
      rendered << to_json(result, def.columns, threads).dump(2) << "\n";
    }

    if (const int code = args.write_artifact(
            rendered.str(), std::to_string(result.points) + " points");
        code != 0) {
      return code;
    }
    run_report.metric("points", static_cast<double>(result.points));
    run_report.metric("wall_seconds", result.wall_seconds);
    run_report.metric("threads", static_cast<double>(threads));
  } catch (const std::exception& e) {
    std::cerr << "sweep_runner: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  // Drain and close before the RunReport destructor snapshots the
  // registry, so the obs.telemetry.* counters in the report are final.
  obs::TelemetrySink::instance().close();
  return 0;
}
