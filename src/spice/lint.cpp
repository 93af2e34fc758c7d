#include "src/spice/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/log.hpp"

namespace ironic::spice {

const char* device_kind_name(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kResistor: return "resistor";
    case DeviceKind::kCapacitor: return "capacitor";
    case DeviceKind::kInductor: return "inductor";
    case DeviceKind::kCoupledInductors: return "coupled-inductors";
    case DeviceKind::kVoltageSource: return "voltage-source";
    case DeviceKind::kCurrentSource: return "current-source";
    case DeviceKind::kVcvs: return "vcvs";
    case DeviceKind::kVccs: return "vccs";
    case DeviceKind::kDiode: return "diode";
    case DeviceKind::kMosfet: return "mosfet";
    case DeviceKind::kSwitch: return "switch";
    case DeviceKind::kOpAmp: return "opamp";
    case DeviceKind::kOther: break;
  }
  return "other";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = std::string(severity_name(severity)) + "[" + rule_id + "]";
  if (!device.empty()) out += " " + device;
  if (!node.empty()) out += (device.empty() ? " node '" : " (node '") + node +
                            (device.empty() ? "'" : "')");
  out += ": " + message;
  return out;
}

std::size_t LintReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t LintReport::warnings() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kWarning; }));
}

std::string LintReport::to_text() const {
  if (diagnostics.empty()) return "";
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_string() << "\n";
  os << errors() << " error(s), " << warnings() << " warning(s)\n";
  return os.str();
}

std::string LintReport::to_json() const {
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
  Value::Object root;
  root["errors"] = static_cast<std::uint64_t>(errors());
  root["warnings"] = static_cast<std::uint64_t>(warnings());
  root["diagnostics"] = std::move(items);
  return Value(std::move(root)).dump(2);
}

namespace {

// Union-find over node indices (ground mapped to the extra slot `n`).
struct Dsu {
  std::vector<int> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  }
  // Returns false if a and b were already connected (a cycle closes).
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[static_cast<std::size_t>(a)] = b;
    return true;
  }
  bool same(int a, int b) { return find(a) == find(b); }
};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string join_names(const std::vector<std::string>& names, std::size_t limit) {
  std::string out;
  for (std::size_t i = 0; i < names.size() && i < limit; ++i) {
    if (i > 0) out += ", ";
    out += "'" + names[i] + "'";
  }
  if (names.size() > limit) {
    out += ", ... (" + std::to_string(names.size() - limit) + " more)";
  }
  return out;
}

struct LintMetrics {
  obs::Counter& runs;
  obs::Counter& errors_total;
  obs::Counter& warnings_total;
  obs::Gauge& last_errors;
  obs::Gauge& last_warnings;

  static LintMetrics& get() {
    static LintMetrics m = [] {
      auto& r = obs::MetricsRegistry::instance();
      return LintMetrics{
          r.counter("spice.lint.runs"),
          r.counter("spice.lint.errors_total"),
          r.counter("spice.lint.warnings_total"),
          r.gauge("spice.lint.last_errors"),
          r.gauge("spice.lint.last_warnings"),
      };
    }();
    return m;
  }
};

// Magnitude plausibility bands per device kind (suspected unit-suffix
// mistakes land orders of magnitude outside these).
struct Band {
  double lo, hi;
  const char* unit;
  const char* range_text;
};

const Band* magnitude_band(DeviceKind kind) {
  static const Band kResistorBand{1e-3, 5e7, "Ohm", "[1 mOhm, 50 MOhm]"};
  static const Band kCapacitorBand{1e-16, 1e-1, "F", "[0.1 fF, 100 mF]"};
  static const Band kInductorBand{1e-12, 1e2, "H", "[1 pH, 100 H]"};
  switch (kind) {
    case DeviceKind::kResistor: return &kResistorBand;
    case DeviceKind::kCapacitor: return &kCapacitorBand;
    case DeviceKind::kInductor: return &kInductorBand;
    default: return nullptr;
  }
}

}  // namespace

// The topology half of a lint report: what the nine rules that read only
// names, terminals, DC groups and rigid pairs found. None of those change
// after construction (Device::info), so validate() keeps one per
// (topology revision, dc_context) in its circuit and re-runs only the
// value rules (lint.bad-value, lint.param-range, lint.magnitude).
struct TopologyLint {
  std::uint64_t revision = 0;
  // A report lists `before`, then the value rules' findings, then `after`.
  std::vector<Diagnostic> before;
  std::vector<Diagnostic> after;
  // The devices whose kind has a magnitude band, in device order.
  std::vector<std::size_t> banded;
};

void TopologyLintDelete::operator()(const TopologyLint* topology) const { delete topology; }

namespace {

TopologyLint lint_topology(const Circuit& circuit, bool dc_context) {
  TopologyLint topology;
  topology.revision = circuit.topology_revision();
  std::vector<Diagnostic>* sink = &topology.before;
  const auto emit = [&sink](Severity sev, std::string rule, std::string device,
                            std::string node, std::string message) {
    sink->push_back(Diagnostic{sev, std::move(rule), std::move(device), std::move(node),
                               std::move(message)});
  };

  const std::size_t num_nodes = circuit.num_nodes();
  const int ground_slot = static_cast<int>(num_nodes);
  const auto slot = [ground_slot](NodeId n) {
    return n == kGround ? ground_slot : static_cast<int>(n);
  };

  // Reflection snapshot, taken once.
  struct Entry {
    const Device* device;
    DeviceInfo info;
  };
  std::vector<Entry> entries;
  entries.reserve(circuit.devices().size());
  for (const auto& dev : circuit.devices()) {
    entries.push_back(Entry{dev.get(), dev->info()});
    if (magnitude_band(entries.back().info.kind) != nullptr) {
      topology.banded.push_back(entries.size() - 1);
    }
  }

  // --- per-node terminal census -----------------------------------------
  std::vector<int> terminal_count(num_nodes, 0);
  bool ground_touched = false;
  for (const auto& e : entries) {
    for (const auto& t : e.info.terminals) {
      if (t.node == kGround) {
        ground_touched = true;
      } else {
        ++terminal_count[static_cast<std::size_t>(t.node)];
      }
    }
  }

  // lint.ground-missing
  if (!entries.empty() && !ground_touched) {
    emit(Severity::kWarning, "lint.ground-missing", "", "",
         "no device terminal connects to ground (node 0); every node voltage "
         "is defined only through the gshunt regularization");
  }

  // lint.dangling-node: registered but unreferenced nodes (API misuse).
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (terminal_count[n] == 0) {
      emit(Severity::kWarning, "lint.dangling-node", "",
           circuit.node_name(static_cast<NodeId>(n)),
           "node is registered but no device terminal connects to it");
    }
  }

  // lint.duplicate-name: case-insensitive collisions. Exact duplicates are
  // rejected at Circuit::add time, so anything found here is an alias pair
  // like "R1" vs "r1" -- legal, but a trap for netlist round-trips (the
  // parser lowercases names).
  {
    std::map<std::string, std::vector<std::string>> by_folded;
    for (const auto& e : entries) {
      by_folded[lower(e.device->name())].push_back(e.device->name());
    }
    for (const auto& [folded, originals] : by_folded) {
      if (originals.size() > 1) {
        emit(Severity::kWarning, "lint.duplicate-name", originals.front(), "",
             "device names " + join_names(originals, 8) +
                 " collide case-insensitively; netlist round-trips cannot "
                 "distinguish them");
      }
    }
  }

  // The value rules' findings go here in a report (lint_values).
  sink = &topology.after;

  // lint.shorted-device: every terminal of a multi-terminal device on one
  // node. (Rigid devices shorted onto themselves are reported as
  // voltage loops below instead.)
  for (const auto& e : entries) {
    if (e.info.terminals.size() < 2 || !e.info.rigid_pairs.empty()) continue;
    const NodeId first = e.info.terminals.front().node;
    const bool all_same = std::all_of(e.info.terminals.begin(), e.info.terminals.end(),
                                      [first](const Terminal& t) { return t.node == first; });
    if (all_same) {
      emit(Severity::kWarning, "lint.shorted-device", e.device->name(),
           circuit.node_name(first),
           "every terminal connects to the same node; the device has no effect");
    }
  }

  // lint.dangling-terminal: a non-ground node referenced by exactly one
  // terminal is a dead-end branch.
  for (const auto& e : entries) {
    for (const auto& t : e.info.terminals) {
      if (t.node == kGround) continue;
      if (terminal_count[static_cast<std::size_t>(t.node)] == 1) {
        emit(Severity::kWarning, "lint.dangling-terminal", e.device->name(),
             circuit.node_name(t.node),
             "terminal '" + t.label + "' is the only connection to this node; "
             "the branch dead-ends");
      }
    }
  }

  // --- DC connectivity: floating nodes & current cutsets -----------------
  // Union nodes joined by in-device DC conduction groups, then inspect the
  // components that ended up disconnected from ground.
  {
    Dsu dc(num_nodes + 1);
    for (const auto& e : entries) {
      std::vector<std::vector<std::size_t>> groups = e.info.dc_groups;
      if (groups.empty()) {
        std::vector<std::size_t> all;
        for (std::size_t i = 0; i < e.info.terminals.size(); ++i) {
          if (e.info.terminals[i].dc == TerminalDc::kConducting) all.push_back(i);
        }
        if (all.size() >= 2) groups.push_back(std::move(all));
      }
      for (const auto& group : groups) {
        for (std::size_t i = 1; i < group.size(); ++i) {
          dc.unite(slot(e.info.terminals[group[0]].node),
                   slot(e.info.terminals[group[i]].node));
        }
      }
      // Devices that pin a terminal to ground (op-amp outputs) anchor it.
      for (std::size_t idx : e.info.rigid_to_ground) {
        dc.unite(slot(e.info.terminals[idx].node), ground_slot);
      }
    }

    // Floating components (skip if ground itself is untouched: the single
    // ground-missing diagnostic already covers the whole circuit).
    if (ground_touched) {
      std::map<int, std::vector<std::string>> floating;  // root -> node names
      for (std::size_t n = 0; n < num_nodes; ++n) {
        if (terminal_count[n] == 0) continue;  // already dangling-node
        const int root = dc.find(static_cast<int>(n));
        if (root != dc.find(ground_slot)) {
          floating[root].push_back(circuit.node_name(static_cast<NodeId>(n)));
        }
      }
      for (const auto& [root, names] : floating) {
        emit(Severity::kWarning, "lint.no-dc-path", "", names.front(),
             (names.size() == 1 ? "node " + join_names(names, 8) + " has"
                                : "nodes " + join_names(names, 8) + " have") +
                 " no DC path to ground; only the gshunt regularization pins " +
                 (names.size() == 1 ? std::string("its") : std::string("their")) +
                 " operating point");
      }
    }

    // Current sources whose terminals sit in a floating component: the
    // forced current has no return path. At DC the node voltage runs away
    // to I/gshunt (~1e12 V); in a transient it can be a deliberate
    // integrator charging a capacitor, hence the severity split.
    for (const auto& e : entries) {
      if (e.info.kind != DeviceKind::kCurrentSource && e.info.kind != DeviceKind::kVccs)
        continue;
      for (std::size_t i = 0; i < e.info.terminals.size() && i < 2; ++i) {
        const auto& t = e.info.terminals[i];
        if (t.node == kGround) continue;
        if (!dc.same(slot(t.node), ground_slot)) {
          emit(dc_context ? Severity::kError : Severity::kWarning,
               "lint.current-cutset", e.device->name(), circuit.node_name(t.node),
               "forced current through terminal '" + t.label +
                   "' has no DC return path to ground" +
                   (dc_context
                        ? "; the DC operating point diverges to I/gshunt"
                        : " (fine only if this is a deliberate integrator)"));
          break;  // one diagnostic per device is enough
        }
      }
    }
  }

  // --- ideal-voltage loops ------------------------------------------------
  // Pass A: truly rigid branches (voltage sources, VCVS outputs, op-amp
  // output-to-ground pins). A closed cycle means linearly dependent MNA
  // rows: singular in every analysis.
  {
    Dsu rigid(num_nodes + 1);
    for (const auto& e : entries) {
      const bool inductive = e.info.kind == DeviceKind::kInductor ||
                             e.info.kind == DeviceKind::kCoupledInductors;
      if (inductive) continue;
      for (const auto& [ia, ib] : e.info.rigid_pairs) {
        if (!rigid.unite(slot(e.info.terminals[ia].node), slot(e.info.terminals[ib].node))) {
          emit(Severity::kError, "lint.voltage-loop", e.device->name(),
               circuit.node_name(e.info.terminals[ia].node),
               "closes a loop of ideal-voltage branches between '" +
                   circuit.node_name(e.info.terminals[ia].node) + "' and '" +
                   circuit.node_name(e.info.terminals[ib].node) +
                   "'; the MNA matrix is singular in every analysis");
        }
      }
      for (std::size_t idx : e.info.rigid_to_ground) {
        if (!rigid.unite(slot(e.info.terminals[idx].node), ground_slot)) {
          emit(Severity::kError, "lint.voltage-loop", e.device->name(),
               circuit.node_name(e.info.terminals[idx].node),
               "output is pinned to a node whose voltage is already fixed by "
               "other ideal-voltage branches");
        }
      }
    }

    // Pass B: ideal inductor windings close the remaining DC shorts. Only
    // the DC operating point sees them as rigid (transient companion
    // models give them finite conductance), hence the context-dependent
    // severity.
    for (const auto& e : entries) {
      const bool inductive = e.info.kind == DeviceKind::kInductor ||
                             e.info.kind == DeviceKind::kCoupledInductors;
      if (!inductive) continue;
      for (const auto& [ia, ib] : e.info.rigid_pairs) {
        if (!rigid.unite(slot(e.info.terminals[ia].node), slot(e.info.terminals[ib].node))) {
          emit(dc_context ? Severity::kError : Severity::kWarning,
               "lint.inductor-loop", e.device->name(),
               circuit.node_name(e.info.terminals[ia].node),
               std::string("ESR-free winding closes a DC short-circuit loop between '") +
                   circuit.node_name(e.info.terminals[ia].node) + "' and '" +
                   circuit.node_name(e.info.terminals[ib].node) + "'" +
                   (dc_context
                        ? "; the DC operating point is singular (give the winding "
                          "an ESR)"
                        : " (the DC operating point would be singular; transient "
                          "companion models regularize it)"));
        }
      }
    }
  }

  return topology;
}

// The value rules, re-run on every report: they read what setters change.
void lint_values(const Circuit& circuit, const TopologyLint& topology,
                 const LintOptions& options, std::vector<Diagnostic>& out) {
  const auto& devices = circuit.devices();
  // lint.bad-value / lint.param-range: per-device model parameter checks.
  for (const auto& dev : devices) {
    std::vector<std::string> errors, warnings;
    dev->check_params(errors, warnings);
    for (auto& msg : errors) {
      out.push_back(Diagnostic{Severity::kError, "lint.bad-value", dev->name(), "",
                               std::move(msg)});
    }
    for (auto& msg : warnings) {
      out.push_back(Diagnostic{Severity::kWarning, "lint.param-range", dev->name(), "",
                               std::move(msg)});
    }
  }

  // lint.magnitude: unit-suffix plausibility for the primary R/C/L value.
  if (options.magnitude_checks) {
    for (const std::size_t i : topology.banded) {
      const Device& dev = *devices[i];
      const DeviceInfo info = dev.info();
      if (!info.has_value || info.value <= 0.0) continue;
      const Band* band = magnitude_band(info.kind);
      if (info.value < band->lo || info.value > band->hi) {
        std::ostringstream msg;
        msg << device_kind_name(info.kind) << " value " << info.value << " " << band->unit
            << " is far outside the plausible range " << band->range_text
            << " -- suspected unit-suffix mistake";
        out.push_back(
            Diagnostic{Severity::kWarning, "lint.magnitude", dev.name(), "", msg.str()});
      }
    }
  }
}

LintReport make_report(const Circuit& circuit, const TopologyLint& topology,
                       const LintOptions& options) {
  LintReport report;
  report.diagnostics = topology.before;
  lint_values(circuit, topology, options, report.diagnostics);
  report.diagnostics.insert(report.diagnostics.end(), topology.after.begin(),
                            topology.after.end());
  if constexpr (obs::kEnabled) {
    auto& m = LintMetrics::get();
    m.runs.add();
    m.errors_total.add(report.errors());
    m.warnings_total.add(report.warnings());
    m.last_errors.set(static_cast<double>(report.errors()));
    m.last_warnings.set(static_cast<double>(report.warnings()));
  }
  return report;
}

}  // namespace

LintReport lint(const Circuit& circuit, const LintOptions& options) {
  return make_report(circuit, lint_topology(circuit, options.dc_context), options);
}

CircuitValidationError::CircuitValidationError(LintReport r)
    : std::invalid_argument("circuit failed static validation:\n" + r.to_text()),
      report(std::move(r)) {}

LintReport validate(const Circuit& circuit, const LintOptions& options) {
  TopologyLintPtr& topology = circuit.topology_lint(options.dc_context);
  if (topology == nullptr || topology->revision != circuit.topology_revision()) {
    topology.reset(new TopologyLint(lint_topology(circuit, options.dc_context)));
  }
  LintReport report = make_report(circuit, *topology, options);
  if (!report.ok()) {
    util::Log::event(util::LogLevel::kError, "spice.lint",
                     {{"event", "validation_failed"},
                      {"errors", std::to_string(report.errors())},
                      {"warnings", std::to_string(report.warnings())}});
    throw CircuitValidationError(std::move(report));
  }
  return report;
}

}  // namespace ironic::spice
