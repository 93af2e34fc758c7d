#include "src/spice/analysis/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/spice/analysis/passes.hpp"

namespace ironic::spice::analysis {
namespace {

using detail::Entry;

struct AnalysisMetrics {
  obs::Counter& runs;
  obs::Gauge& last_unknowns;
  obs::Gauge& last_factor_nnz;
  obs::Gauge& last_dt_recommend;

  static AnalysisMetrics& get() {
    static AnalysisMetrics m = [] {
      auto& r = obs::MetricsRegistry::instance();
      return AnalysisMetrics{
          r.counter("spice.analysis.runs"),
          r.gauge("spice.analysis.last_unknowns"),
          r.gauge("spice.analysis.last_factor_nnz"),
          r.gauge("spice.analysis.last_dt_recommend"),
      };
    }();
    return m;
  }
};

// JSON helper: finite -> number, non-finite -> null (JSON has no inf).
obs::json::Value json_number(double v) {
  using obs::json::Value;
  return std::isfinite(v) ? Value(v) : Value(nullptr);
}

obs::json::Value diagnostics_json(const std::vector<Diagnostic>& diagnostics) {
  using obs::json::Value;
  Value::Array items;
  for (const auto& d : diagnostics) {
    Value::Object o;
    o["severity"] = severity_name(d.severity);
    o["rule"] = d.rule_id;
    if (!d.device.empty()) o["device"] = d.device;
    if (!d.node.empty()) o["node"] = d.node;
    o["message"] = d.message;
    items.emplace_back(std::move(o));
  }
  return Value(std::move(items));
}

}  // namespace

std::size_t AnalysisReport::errors() const {
  return lint.errors() +
         static_cast<std::size_t>(std::count_if(
             diagnostics.begin(), diagnostics.end(),
             [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t AnalysisReport::warnings() const {
  return lint.warnings() +
         static_cast<std::size_t>(std::count_if(
             diagnostics.begin(), diagnostics.end(),
             [](const Diagnostic& d) { return d.severity == Severity::kWarning; }));
}

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  os << "analysis: " << sparsity.unknowns << " unknowns, "
     << sparsity.prediction.pattern_nnz << " nnz, predicted factor nnz "
     << sparsity.prediction.factor_nnz
     << (sparsity.prediction.singular ? " (prediction singular)" : "") << "\n";
  if (timescale.dt_recommend > 0.0) {
    os << "dt recommendation: " << timescale.dt_recommend << " s";
    if (timescale.tau_min > 0.0) {
      os << " (tau " << timescale.tau_min << " .. " << timescale.tau_max << " s)";
    }
    os << "\n";
  }
  os << "node envelopes:\n";
  for (const auto& n : envelope.nodes) {
    os << "  " << n.node << ": [" << n.lo << ", " << n.hi << "]"
       << (n.anchored ? " anchored" : "") << "\n";
  }
  for (const auto& d : lint.diagnostics) os << d.to_string() << "\n";
  for (const auto& d : diagnostics) os << d.to_string() << "\n";
  os << errors() << " error(s), " << warnings() << " warning(s)\n";
  return os.str();
}

std::string AnalysisReport::to_json() const {
  using obs::json::Value;
  Value::Object root;
  root["unknowns"] = static_cast<std::uint64_t>(sparsity.unknowns);

  Value::Array nodes;
  for (const auto& n : envelope.nodes) {
    Value::Object o;
    o["node"] = n.node;
    o["lo"] = json_number(n.lo);
    o["hi"] = json_number(n.hi);
    o["anchored"] = n.anchored;
    nodes.emplace_back(std::move(o));
  }
  Value::Array currents;
  for (const auto& c : envelope.currents) {
    Value::Object o;
    o["device"] = c.device;
    o["bounded"] = c.bounded;
    if (c.bounded) o["max_abs_current"] = json_number(c.max_abs_current);
    currents.emplace_back(std::move(o));
  }
  Value::Object env;
  env["nodes"] = std::move(nodes);
  env["currents"] = std::move(currents);
  root["envelope"] = std::move(env);

  Value::Object sp;
  sp["pattern_nnz"] = static_cast<std::uint64_t>(sparsity.prediction.pattern_nnz);
  sp["factor_nnz"] = static_cast<std::uint64_t>(sparsity.prediction.factor_nnz);
  sp["factor_flops"] = sparsity.prediction.factor_flops;
  sp["solve_flops"] = sparsity.prediction.solve_flops;
  sp["singular"] = sparsity.prediction.singular;
  root["sparsity"] = std::move(sp);

  Value::Object ts;
  ts["tau_min"] = timescale.tau_min;
  ts["tau_max"] = timescale.tau_max;
  ts["t_osc_min"] = timescale.t_osc_min;
  ts["t_stim_min"] = timescale.t_stim_min;
  ts["t_breakpoint_min"] = timescale.t_breakpoint_min;
  ts["stiffness_ratio"] = timescale.stiffness_ratio;
  ts["dt_recommend"] = timescale.dt_recommend;
  root["timescale"] = std::move(ts);

  root["lint"] = Value::parse(lint.to_json());
  root["diagnostics"] = diagnostics_json(diagnostics);
  root["errors"] = static_cast<std::uint64_t>(errors());
  root["warnings"] = static_cast<std::uint64_t>(warnings());
  return Value(std::move(root)).dump(2);
}

AnalysisReport analyze(Circuit& circuit, const AnalysisOptions& options) {
  PROF_ZONE("spice.analysis");
  AnalysisReport report;

  std::vector<Entry> entries;
  entries.reserve(circuit.devices().size());
  for (const auto& dev : circuit.devices()) {
    entries.push_back(Entry{dev.get(), dev->info()});
  }

  // One profiler zone per pass carries its time
  // (prof.spice.analysis.<pass>.*).
  {
    PROF_ZONE("spice.analysis.lint");
    LintOptions lint_options;
    lint_options.dc_context = options.dc_context;
    report.lint = lint(circuit, lint_options);
  }
  {
    PROF_ZONE("spice.analysis.envelope");
    report.envelope = detail::run_envelope(circuit, entries, report.diagnostics);
  }
  {
    PROF_ZONE("spice.analysis.sparsity");
    report.sparsity = detail::run_sparsity(circuit);
  }
  {
    PROF_ZONE("spice.analysis.timescale");
    report.timescale =
        detail::run_timescale(circuit, entries, report.envelope,
                              options.transient_horizon, report.diagnostics);
  }

  if constexpr (obs::kEnabled) {
    auto& m = AnalysisMetrics::get();
    m.runs.add();
    m.last_unknowns.set(static_cast<double>(report.sparsity.unknowns));
    m.last_factor_nnz.set(static_cast<double>(report.sparsity.prediction.factor_nnz));
    m.last_dt_recommend.set(report.timescale.dt_recommend);
  }
  return report;
}

}  // namespace ironic::spice::analysis
