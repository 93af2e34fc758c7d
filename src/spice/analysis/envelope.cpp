// Interval operating-envelope pass.
//
// Bounds every node voltage by propagating independent-source value
// ranges through the circuit's rigid (ideal-voltage) edges, then closing
// the remaining nodes with a max-principle argument over their
// DC-conducting component:
//
//   1. Rigid fixpoint. Each rigid branch (voltage source, ESR-free
//      inductor winding, VCVS output) fixes v(a) - v(b) to a static
//      interval; op-amp outputs are clamped to their rail interval.
//      Iterating interval intersections to a fixpoint pins every node
//      that reaches ground through rigid edges ("anchored" nodes) to an
//      exact source-arithmetic band.
//   2. Component hull. A node connected to anchors only through
//      dissipative elements (R, diode, channel, ...) cannot leave the
//      hull of its component's anchored bands: monotone resistive
//      networks obey a discrete maximum principle. Floating rigid pairs
//      (a battery between two unanchored nodes) can offset a node from
//      the hull by at most the sum of the component's rigid-edge
//      magnitudes, and current injections (I sources, VCCS) by at most
//      I_total * R_eff.
//
// Envelope-unbounded diagnostics fire on *node* envelopes only; device
// current bounds may legitimately be astronomically large (a reverse
// diode corner evaluates the exponential at the envelope edge) without
// indicating a modeling problem.
#include <algorithm>
#include <cmath>

#include "src/spice/analysis/passes.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"

namespace ironic::spice::analysis::detail {
namespace {

// Width beyond which a (finite) node envelope is reported as effectively
// unbounded — nothing in an implant power chain swings a gigavolt.
constexpr double kUnboundedWidth = 1e9;
// Fallback effective resistance when a component has no usable ohmic sum
// (nonlinear channels or no anchor): the node leaks to ground only
// through the engine's kGshunt.
constexpr double kGshuntResistance = 1.0 / kGshunt;
// Clamp for corner evaluations of device models on unbounded envelopes.
constexpr double kCornerClamp = 1e12;

// One rigid edge: v(a) - v(b) in [olo, ohi]. VCVS edges recompute the
// offset each sweep from the controlling nodes' current intervals.
struct RigidEdge {
  int a = 0;
  int b = 0;
  double olo = 0.0;
  double ohi = 0.0;
  bool vcvs = false;
  int cp = 0;
  int cn = 0;
  double gain = 0.0;
};

// Intersect `target` with `cand`; contradictory constraints (a voltage
// loop the linter flags separately) collapse to the overlap midpoint so
// the fixpoint stays well defined.
void tighten(Interval& target, Interval cand) {
  double lo = std::max(target.lo, cand.lo);
  double hi = std::min(target.hi, cand.hi);
  if (lo > hi) {
    const double mid = 0.5 * (lo + hi);
    lo = mid;
    hi = mid;
  }
  target.lo = lo;
  target.hi = hi;
}

double clamp_corner(double v) {
  return std::clamp(v, -kCornerClamp, kCornerClamp);
}

}  // namespace

void unite_dc_groups(Dsu& dsu, const Entry& e, int ground_slot) {
  const auto slot = [ground_slot](NodeId n) {
    return n == kGround ? ground_slot : static_cast<int>(n);
  };
  if (!e.info.dc_groups.empty()) {
    for (const auto& group : e.info.dc_groups) {
      for (std::size_t i = 1; i < group.size(); ++i) {
        dsu.unite(slot(e.info.terminals[group[0]].node),
                  slot(e.info.terminals[group[i]].node));
      }
    }
  } else {
    int first = -1;
    for (const auto& t : e.info.terminals) {
      if (t.dc != TerminalDc::kConducting) continue;
      if (first < 0) {
        first = slot(t.node);
      } else {
        dsu.unite(first, slot(t.node));
      }
    }
  }
  for (const std::size_t ti : e.info.rigid_to_ground) {
    dsu.unite(slot(e.info.terminals[ti].node), ground_slot);
  }
}

EnvelopeResult run_envelope(const Circuit& circuit,
                            const std::vector<Entry>& entries,
                            std::vector<Diagnostic>& diagnostics) {
  EnvelopeResult result;
  const std::size_t num_nodes = circuit.num_nodes();
  const int ground_slot = static_cast<int>(num_nodes);
  const auto slot = [ground_slot](NodeId n) {
    return n == kGround ? ground_slot : static_cast<int>(n);
  };

  std::vector<Interval> v(num_nodes + 1);
  v[static_cast<std::size_t>(ground_slot)] = {0.0, 0.0};

  // --- rigid edges and rail clamps ---------------------------------------
  std::vector<RigidEdge> edges;
  struct Clamp {
    int node;
    Interval band;
  };
  std::vector<Clamp> clamps;
  for (const auto& e : entries) {
    const auto& info = e.info;
    for (const auto& [ta, tb] : info.rigid_pairs) {
      RigidEdge edge;
      edge.a = slot(info.terminals[ta].node);
      edge.b = slot(info.terminals[tb].node);
      switch (info.kind) {
        case DeviceKind::kVoltageSource:
          if (info.has_source_range) {
            edge.olo = info.source_min;
            edge.ohi = info.source_max;
          } else {
            edge.olo = -kInf;  // stimulus with no static range
            edge.ohi = kInf;
          }
          break;
        case DeviceKind::kVcvs:
          edge.vcvs = true;
          edge.cp = slot(info.terminals[2].node);
          edge.cn = slot(info.terminals[3].node);
          edge.gain = info.has_gain ? info.gain : 0.0;
          break;
        default:
          // ESR-free inductor / coupled winding: a DC short, offset 0.
          break;
      }
      edges.push_back(edge);
    }
    if (info.has_output_range) {
      for (const std::size_t ti : info.rigid_to_ground) {
        clamps.push_back({slot(info.terminals[ti].node),
                          {info.output_min, info.output_max}});
      }
    }
  }

  // --- rigid fixpoint ------------------------------------------------------
  // Bounded sweeps instead of a convergence test: each sweep can only
  // tighten, and information travels at most one edge per sweep, so
  // 2*(slots) + a margin is enough for any rigid chain.
  const std::size_t sweeps = 2 * (num_nodes + 2) + 8;
  for (std::size_t it = 0; it < sweeps; ++it) {
    for (const auto& c : clamps) tighten(v[static_cast<std::size_t>(c.node)], c.band);
    for (const auto& e : edges) {
      const Interval off =
          e.vcvs ? iv_scale(e.gain, iv_sub(v[static_cast<std::size_t>(e.cp)],
                                           v[static_cast<std::size_t>(e.cn)]))
                 : Interval{e.olo, e.ohi};
      tighten(v[static_cast<std::size_t>(e.a)],
              iv_add(v[static_cast<std::size_t>(e.b)], off));
      tighten(v[static_cast<std::size_t>(e.b)],
              iv_sub(v[static_cast<std::size_t>(e.a)], off));
    }
  }

  std::vector<char> anchored(num_nodes + 1, 0);
  for (std::size_t s = 0; s <= num_nodes; ++s) anchored[s] = v[s].finite() ? 1 : 0;

  // --- DC components -------------------------------------------------------
  Dsu dsu(num_nodes + 1);
  for (const auto& e : entries) unite_dc_groups(dsu, e, ground_slot);

  struct Component {
    Interval hull{0.0, 0.0};  // hull of anchored bands, always including 0
    bool any_anchored = false;
    double rigid_offset_sum = 0.0;  // floating rigid pairs' max offsets
    double ohmic_sum = 0.0;         // series-resistance upper bound
    bool nonlinear_channel = false;
    double injection = 0.0;         // worst-case injected current (A)
  };
  std::vector<Component> comps(num_nodes + 1);
  for (std::size_t s = 0; s <= num_nodes; ++s) {
    if (!anchored[s]) continue;
    auto& c = comps[static_cast<std::size_t>(dsu.find(static_cast<int>(s)))];
    c.any_anchored = true;
    c.hull.lo = std::min(c.hull.lo, v[s].lo);
    c.hull.hi = std::max(c.hull.hi, v[s].hi);
  }
  for (const auto& e : edges) {
    if (anchored[static_cast<std::size_t>(e.a)] ||
        anchored[static_cast<std::size_t>(e.b)]) {
      continue;  // propagation already folded this edge into the bands
    }
    const Interval off =
        e.vcvs ? iv_scale(e.gain, iv_sub(v[static_cast<std::size_t>(e.cp)],
                                         v[static_cast<std::size_t>(e.cn)]))
               : Interval{e.olo, e.ohi};
    comps[static_cast<std::size_t>(dsu.find(e.a))].rigid_offset_sum +=
        iv_max_abs(off);
  }
  for (const auto& e : entries) {
    const auto& info = e.info;
    switch (info.kind) {
      case DeviceKind::kResistor:
        if (info.has_value) {
          comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[0].node)))]
              .ohmic_sum += info.value;
        }
        break;
      case DeviceKind::kInductor: {
        const auto* l = dynamic_cast<const Inductor*>(e.device);
        if (l != nullptr && l->esr() > 0.0) {
          comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[0].node)))]
              .ohmic_sum += l->esr();
        }
        break;
      }
      case DeviceKind::kCoupledInductors: {
        const auto* x = dynamic_cast<const CoupledInductors*>(e.device);
        if (x != nullptr) {
          if (x->r_primary() > 0.0) {
            comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[0].node)))]
                .ohmic_sum += x->r_primary();
          }
          if (x->r_secondary() > 0.0) {
            comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[2].node)))]
                .ohmic_sum += x->r_secondary();
          }
        }
        break;
      }
      case DeviceKind::kDiode:
      case DeviceKind::kMosfet:
      case DeviceKind::kSwitch:
        for (const auto& t : info.terminals) {
          if (t.dc == TerminalDc::kConducting) {
            comps[static_cast<std::size_t>(dsu.find(slot(t.node)))]
                .nonlinear_channel = true;
          }
        }
        break;
      case DeviceKind::kCurrentSource: {
        const double i =
            info.has_source_range
                ? std::max(std::abs(info.source_min), std::abs(info.source_max))
                : kInf;
        for (const auto& t : info.terminals) {
          comps[static_cast<std::size_t>(dsu.find(slot(t.node)))].injection += i;
        }
        break;
      }
      case DeviceKind::kVccs: {
        const double ctrl = iv_max_abs(
            iv_sub(v[static_cast<std::size_t>(slot(info.terminals[2].node))],
                   v[static_cast<std::size_t>(slot(info.terminals[3].node))]));
        const double gm = info.has_gain ? std::abs(info.gain) : 0.0;
        const double i = gm == 0.0 ? 0.0 : gm * ctrl;
        comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[0].node)))]
            .injection += i;
        comps[static_cast<std::size_t>(dsu.find(slot(info.terminals[1].node)))]
            .injection += i;
        break;
      }
      default:
        break;
    }
  }

  // --- close unanchored nodes against their component ---------------------
  for (std::size_t s = 0; s < num_nodes; ++s) {
    if (anchored[s]) continue;
    const auto& c = comps[static_cast<std::size_t>(dsu.find(static_cast<int>(s)))];
    const double r_eff = (c.nonlinear_channel || !c.any_anchored)
                             ? kGshuntResistance
                             : c.ohmic_sum;
    // (1 + 1e-9): absorb the engine-side rounding of v = I * R so the
    // containment property holds with exact comparisons.
    const double ir = c.injection == 0.0 ? 0.0 : c.injection * r_eff * (1.0 + 1e-9);
    const double widen = c.rigid_offset_sum + ir;
    tighten(v[s], {c.hull.lo - widen, c.hull.hi + widen});
  }

  // --- node report + diagnostics ------------------------------------------
  result.nodes.reserve(num_nodes);
  for (std::size_t s = 0; s < num_nodes; ++s) {
    result.nodes.push_back(NodeEnvelope{circuit.node_name(static_cast<NodeId>(s)),
                                        v[s].lo, v[s].hi, anchored[s] != 0});
    if (!v[s].finite() || v[s].width() > kUnboundedWidth) {
      diagnostics.push_back(Diagnostic{
          Severity::kWarning, "analysis.envelope-unbounded", "",
          circuit.node_name(static_cast<NodeId>(s)),
          "static envelope is unbounded -- no rigid path to ground constrains "
          "this node's worst-case voltage"});
    }
  }

  const auto band = [&](NodeId n) { return v[static_cast<std::size_t>(slot(n))]; };

  // Overvoltage pre-check: rated junctions whose worst-case *reverse*
  // corner exceeds the rating. (Forward corners are clamped by the
  // junction itself; the static band cannot see that.)
  for (const auto& e : entries) {
    const auto& info = e.info;
    if (info.voltage_rating <= 0.0 || info.terminals.size() < 2) continue;
    const Interval vd = iv_sub(band(info.terminals[0].node), band(info.terminals[1].node));
    if (vd.lo < -info.voltage_rating) {
      diagnostics.push_back(Diagnostic{
          Severity::kWarning, "analysis.overvoltage-risk", e.device->name(), "",
          "worst-case reverse voltage " + std::to_string(vd.lo) +
              " V exceeds the " + std::to_string(info.voltage_rating) +
              " V rating"});
    }
  }

  // --- device current bounds ----------------------------------------------
  // Two rounds: conduction devices first, then branch devices (ideal
  // voltage branches) via KCL at their terminals; the second round lets
  // a branch bound computed in round one feed a neighboring branch.
  const std::size_t num_devices = entries.size();
  std::vector<DeviceCurrentBound> bounds(num_devices);
  std::vector<char> is_branch(num_devices, 0);
  for (std::size_t di = 0; di < num_devices; ++di) {
    const auto& e = entries[di];
    const auto& info = e.info;
    auto& out = bounds[di];
    out.device = e.device->name();
    const auto vd = [&](std::size_t ta, std::size_t tb) {
      return iv_sub(band(info.terminals[ta].node), band(info.terminals[tb].node));
    };
    const auto set = [&out](double value) {
      out.bounded = std::isfinite(value);
      out.max_abs_current = out.bounded ? value : 0.0;
    };
    switch (info.kind) {
      case DeviceKind::kResistor:
        if (info.has_value && info.value > 0.0) set(iv_max_abs(vd(0, 1)) / info.value);
        break;
      case DeviceKind::kCapacitor:
        set(0.0);  // blocking at DC
        break;
      case DeviceKind::kInductor: {
        const auto* l = dynamic_cast<const Inductor*>(e.device);
        if (l != nullptr && l->esr() > 0.0) {
          set(iv_max_abs(vd(0, 1)) / l->esr());
        } else {
          is_branch[di] = 1;
        }
        break;
      }
      case DeviceKind::kCoupledInductors: {
        const auto* x = dynamic_cast<const CoupledInductors*>(e.device);
        if (x != nullptr && x->r_primary() > 0.0 && x->r_secondary() > 0.0) {
          set(std::max(iv_max_abs(vd(0, 1)) / x->r_primary(),
                       iv_max_abs(vd(2, 3)) / x->r_secondary()));
        } else {
          is_branch[di] = 1;
        }
        break;
      }
      case DeviceKind::kCurrentSource:
        if (info.has_source_range) {
          set(std::max(std::abs(info.source_min), std::abs(info.source_max)));
        }
        break;
      case DeviceKind::kVccs: {
        const double gm = info.has_gain ? std::abs(info.gain) : 0.0;
        const double ctrl = iv_max_abs(vd(2, 3));
        if (gm == 0.0) {
          set(0.0);
        } else if (std::isfinite(ctrl)) {
          set(gm * ctrl);
        }
        break;
      }
      case DeviceKind::kDiode: {
        const auto* d = dynamic_cast<const Diode*>(e.device);
        const Interval b = vd(0, 1);
        if (d != nullptr) {
          const double i_lo = d->current(clamp_corner(b.lo));
          const double i_hi = d->current(clamp_corner(b.hi));
          const double worst = std::max(std::abs(i_lo), std::abs(i_hi));
          if (std::isfinite(worst)) set(worst);
        }
        break;
      }
      case DeviceKind::kSwitch: {
        const auto* sw = dynamic_cast<const SmoothSwitch*>(e.device);
        const Interval vc = vd(2, 3);
        if (sw != nullptr) {
          const double g = std::max(sw->conductance(clamp_corner(vc.lo)),
                                    sw->conductance(clamp_corner(vc.hi)));
          const double worst = g * iv_max_abs(vd(0, 1));
          if (std::isfinite(worst)) set(worst);
        }
        break;
      }
      case DeviceKind::kMosfet: {
        // Corner-sampled: |Id| is evaluated at the 16 envelope corners of
        // (d, g, s, b). The square-law model is monotone enough in each
        // terminal for this to be the practical worst case, but it is a
        // sample, not a proof (DESIGN.md §13).
        const auto* m = dynamic_cast<const Mosfet*>(e.device);
        if (m != nullptr && info.terminals.size() == 4) {
          double worst = 0.0;
          const Interval bd = band(info.terminals[0].node);
          const Interval bg = band(info.terminals[1].node);
          const Interval bs = band(info.terminals[2].node);
          const Interval bb = band(info.terminals[3].node);
          for (int mask = 0; mask < 16; ++mask) {
            const double cd = clamp_corner((mask & 1) != 0 ? bd.hi : bd.lo);
            const double cg = clamp_corner((mask & 2) != 0 ? bg.hi : bg.lo);
            const double cs = clamp_corner((mask & 4) != 0 ? bs.hi : bs.lo);
            const double cb = clamp_corner((mask & 8) != 0 ? bb.hi : bb.lo);
            worst = std::max(worst, std::abs(m->drain_current(cd, cg, cs, cb)));
          }
          if (std::isfinite(worst)) set(worst);
        }
        break;
      }
      case DeviceKind::kVoltageSource:
      case DeviceKind::kVcvs:
      case DeviceKind::kOpAmp:
        is_branch[di] = 1;
        break;
      default:
        break;
    }
  }
  // KCL closure for ideal-voltage branches: the branch current cannot
  // exceed the summed bounds of every *other* device on either terminal.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t di = 0; di < num_devices; ++di) {
      if (!is_branch[di]) continue;
      const auto& info = entries[di].info;
      double best = kInf;
      for (const auto& t : info.terminals) {
        if (t.dc != TerminalDc::kConducting || t.node == kGround) continue;
        double sum = 0.0;
        bool usable = true;
        for (std::size_t dj = 0; dj < num_devices && usable; ++dj) {
          if (dj == di) continue;
          bool touches = false;
          for (const auto& tj : entries[dj].info.terminals) {
            if (tj.dc == TerminalDc::kConducting && tj.node == t.node) {
              touches = true;
              break;
            }
          }
          if (!touches) continue;
          if (bounds[dj].bounded) {
            sum += bounds[dj].max_abs_current;
          } else {
            usable = false;
          }
        }
        if (usable) best = std::min(best, sum);
      }
      if (std::isfinite(best)) {
        bounds[di].bounded = true;
        bounds[di].max_abs_current = best;
      }
    }
  }
  result.currents = std::move(bounds);
  return result;
}

}  // namespace ironic::spice::analysis::detail
