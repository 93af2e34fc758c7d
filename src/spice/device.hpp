// Device abstraction for the MNA engine.
//
// Every circuit element implements `stamp`, contributing its linearized
// companion model to the system A x = rhs for the current Newton iterate.
// The unknown vector x holds node voltages first, then branch currents
// (voltage sources, inductors) in setup order.
#pragma once

#include <complex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/linalg/complex_matrix.hpp"
#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse.hpp"

namespace ironic::spice {

// Node handle. kGround is the reference node and has no matrix row.
using NodeId = int;
constexpr NodeId kGround = -1;

enum class Integrator { kBackwardEuler, kTrapezoidal };

// Floor conductance every junction and MOSFET channel stamps across
// itself, in DC, transient and AC alike [S].
inline constexpr double kGmin = 1e-12;
// Node-to-ground leak on every node diagonal of every assembly; keeps the
// MNA matrix regular [S].
inline constexpr double kGshunt = 1e-12;

class Circuit;

// --- device reflection ------------------------------------------------------
//
// Devices describe their own topology so passes that are not analyses —
// the netlist linter above all — can reason about connectivity without
// growing a friend list or parsing stamps. `DeviceInfo` is a snapshot:
// cheap to build, safe to cache, and independent of finalize().

enum class DeviceKind {
  kResistor,
  kCapacitor,
  kInductor,
  kCoupledInductors,
  kVoltageSource,
  kCurrentSource,
  kVcvs,
  kVccs,
  kDiode,
  kMosfet,
  kSwitch,
  kOpAmp,
  kOther,
};

const char* device_kind_name(DeviceKind kind);

// How a terminal behaves at DC, for connectivity analysis.
enum class TerminalDc {
  kConducting,  // part of a DC-conducting path (R, L, V, D, switch, channel)
  kBlocking,    // open at DC (capacitor plates)
  kSensing,     // draws no current, only senses voltage (gates, control pins)
};

struct Terminal {
  std::string label;  // "+", "-", "d", "g", "cp", ...
  NodeId node = kGround;
  TerminalDc dc = TerminalDc::kConducting;
};

struct DeviceInfo {
  DeviceKind kind = DeviceKind::kOther;
  std::vector<Terminal> terminals;
  // Primary scalar value (resistance, capacitance, ...); meaningful only
  // when has_value is true.
  double value = 0.0;
  bool has_value = false;
  // Groups of terminal indices between which DC current can flow inside
  // the device (a transformer has two separate groups; a MOSFET one).
  // Empty means "all kConducting terminals form one group".
  std::vector<std::vector<std::size_t>> dc_groups;
  // Pairs of terminal indices that form an ideal-voltage branch (voltage
  // sources, VCVS outputs, ESR-free inductor windings at DC): edges whose
  // voltage is fixed by the device, hence the raw material of V-loops.
  std::vector<std::pair<std::size_t, std::size_t>> rigid_pairs;
  // Terminal indices whose voltage the device pins relative to ground
  // (the op-amp output). Rigid edges to the reference node.
  std::vector<std::size_t> rigid_to_ground;

  // --- static-analysis annotations (src/spice/analysis) -------------------
  // Stimulus range for independent sources: the waveform's static
  // [source_min, source_max] band, valid when has_source_range.
  bool has_source_range = false;
  double source_min = 0.0;
  double source_max = 0.0;
  // Smallest intrinsic stimulus timescale (period, edge, segment); 0 when
  // the device carries no time-varying stimulus.
  double stimulus_timescale = 0.0;
  // Controlled-source coefficient (VCVS voltage gain, VCCS
  // transconductance), valid when has_gain.
  bool has_gain = false;
  double gain = 0.0;
  // Output rail clamp (op-amp [v_out_min, v_out_max]), valid when
  // has_output_range.
  bool has_output_range = false;
  double output_min = 0.0;
  double output_max = 0.0;
  // Maximum safe terminal-to-terminal voltage magnitude (diode reverse
  // breakdown). 0 means unrated.
  double voltage_rating = 0.0;
};

// Everything a device needs to stamp one Newton iteration. Matrix
// entries accumulate into the sparse solver, which caches the
// stamp-call sequence, so devices should go through the add_a/stamp_*
// helpers and need not — must not — try to write structure themselves
// (see DESIGN.md §11 for the slot-cache contract).
struct StampContext {
  linalg::SparseSolver<double>& a;
  std::vector<double>& rhs;
  std::span<const double> x;  // current Newton iterate (full unknown vector)
  double time = 0.0;          // time point being solved
  double dt = 0.0;            // step size; <= 0 in DC analysis
  Integrator integrator = Integrator::kTrapezoidal;
  bool dc = false;            // true during DC operating-point analysis
  double source_scale = 1.0;  // < 1 only during DC source stepping
  // Set by devices when junction/step limiting altered an evaluation
  // voltage; the Newton loop refuses to declare convergence while any
  // device is still walking its limited variables toward the iterate.
  bool limited = false;
  // False when the solver still holds this point's factored matrix (a
  // linear circuit at an unchanged step, see Device::nonlinear): add_a
  // does nothing and only the right-hand side is stamped.
  bool matrix = true;

  // Voltage of `node` in the current iterate (0 for ground).
  double v(NodeId node) const { return node == kGround ? 0.0 : x[static_cast<std::size_t>(node)]; }
  // Value of unknown `index` (node or branch).
  double unknown(int index) const { return x[static_cast<std::size_t>(index)]; }
};

// Small-signal (AC) stamping context: the complex MNA system at one
// angular frequency, linearized around the DC operating point `op`.
struct AcStampContext {
  linalg::SparseSolver<linalg::Complex>& a;
  linalg::CVector& rhs;
  std::span<const double> op;  // DC operating point (full unknown vector)
  double omega = 0.0;

  double v_op(NodeId node) const {
    return node == kGround ? 0.0 : op[static_cast<std::size_t>(node)];
  }
};

// The per-step hooks a device does real work in. The engine calls a hook
// only on the devices that declare it: Circuit::finalize() caches one
// device list per hook, in device order, and run_transient and solve_dc
// walk those lists instead of every device. An undeclared hook must
// therefore be a no-op on that device: start_step must not change its
// next stamp, accept_step must change neither its state nor its next
// stamp, and stamp with ctx.matrix false must leave rhs and ctx.limited
// alone. Every matrix assembly still stamps every device in device order,
// and the held-matrix restamp visits a subsequence of that order, so
// skipping an undeclared hook changes no floating-point operation.
struct StepHooks {
  bool start_step = true;   // resets per-point Newton limiting state
  bool accept_step = true;  // updates integration history
  bool rhs_stamp = true;    // stamp writes rhs when ctx.matrix is false

  bool operator==(const StepHooks&) const = default;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  // Called once per analysis, after all devices exist; allocate branch
  // unknowns here via Circuit::allocate_branch.
  virtual void setup(Circuit&) {}

  // Contribute the linearized companion model at the current iterate.
  virtual void stamp(StampContext& ctx) = 0;

  // Called when the engine begins a new time point (before Newton);
  // devices reset per-iteration limiting state here. Like accept_step,
  // called only when step_hooks() declares it.
  virtual void start_step(double /*time*/, double /*dt*/) {}

  // Called when a time point is accepted; devices update integration state.
  virtual void accept_step(std::span<const double> /*x*/, double /*time*/, double /*dt*/,
                           Integrator /*integrator*/) {}

  // Called once before transient stepping with the initial solution
  // (DC operating point, or zeros under use-initial-conditions).
  virtual void initialize(std::span<const double> /*x0*/) {}

  // Append stimulus breakpoints in [t0, t1].
  virtual void collect_breakpoints(double /*t0*/, double /*t1*/,
                                   std::vector<double>& /*out*/) const {}

  // True if the device's stamp depends on the iterate (forces Newton).
  // Returning false is a stronger promise, the linear-matrix contract:
  // the device's matrix entries (everything it passes to add_a) depend
  // only on dt, integrator, dc and whether it has accepted a step
  // since initialize()/restore_state() -- never on time, the iterate or
  // other state. A circuit of such devices is solved once per point, and
  // its transient re-assembles and re-factors the matrix only when that
  // key changes (DESIGN.md §5). R, C, L, K, V, I, VCVS and VCCS meet it;
  // a device whose conductance varies with time must return true.
  virtual bool nonlinear() const { return false; }

  // Which per-step hooks this device does work in (see StepHooks). The
  // default declares all three, so a device that does not override this
  // is called exactly as if the engine visited every device every time.
  virtual StepHooks step_hooks() const { return {}; }

  // --- checkpoint/restart ---------------------------------------------------
  // Serialize the device's cross-step integration state (companion-model
  // history) by appending doubles to `out`. Stateless devices — anything
  // whose per-step state is rebuilt in start_step — keep the empty
  // default. restore_state must consume exactly the doubles save_state
  // produced and return that count; the engine concatenates the blobs in
  // device order (see spice::TransientCheckpoint).
  virtual void save_state(std::vector<double>& /*out*/) const {}
  virtual std::size_t restore_state(std::span<const double> /*in*/) { return 0; }

  // Topology/value snapshot for static passes (lint). The default is an
  // opaque device with no terminals; every shipped device overrides this.
  // Its topology fields (kind, terminals, dc_groups, rigid_pairs and
  // rigid_to_ground) are fixed at construction, and no setter may change
  // them: validate() keeps what the topology rules found until a node or
  // a device is added (Circuit::topology_revision). The value fields and
  // check_params may follow a setter.
  virtual DeviceInfo info() const { return {}; }

  // Per-device model-parameter sanity check: append human-readable
  // complaints (without device name; the linter adds it). `errors` are
  // values that break the MNA formulation or integrator; `warnings` are
  // physically implausible but simulable.
  virtual void check_params(std::vector<std::string>& /*errors*/,
                            std::vector<std::string>& /*warnings*/) const {}

  // Contribute the small-signal model at the operating point. Devices
  // without an AC model must override nothing — the engine reports them.
  virtual void stamp_ac(AcStampContext&) const {
    throw std::logic_error("device '" + name_ + "' has no small-signal (AC) model");
  }

 protected:
  // --- ground-aware stamping helpers -------------------------------------
  static void add_a(StampContext& ctx, int row, int col, double value) {
    if (row < 0 || col < 0 || !ctx.matrix) return;
    ctx.a.add(row, col, value);
  }
  static void add_rhs(StampContext& ctx, int row, double value) {
    if (row < 0) return;
    ctx.rhs[static_cast<std::size_t>(row)] += value;
  }
  // Stamp a conductance g between nodes a and b.
  static void stamp_conductance(StampContext& ctx, NodeId a, NodeId b, double g) {
    add_a(ctx, a, a, g);
    add_a(ctx, b, b, g);
    add_a(ctx, a, b, -g);
    add_a(ctx, b, a, -g);
  }
  // Stamp a constant current flowing from a to b (through the device).
  static void stamp_current(StampContext& ctx, NodeId a, NodeId b, double i) {
    add_rhs(ctx, a, -i);
    add_rhs(ctx, b, i);
  }

  // --- complex (AC) stamping helpers --------------------------------------
  static void ac_add(AcStampContext& ctx, int row, int col, linalg::Complex value) {
    if (row < 0 || col < 0) return;
    ctx.a.add(row, col, value);
  }
  static void ac_rhs(AcStampContext& ctx, int row, linalg::Complex value) {
    if (row < 0) return;
    ctx.rhs[static_cast<std::size_t>(row)] += value;
  }
  static void ac_admittance(AcStampContext& ctx, NodeId a, NodeId b,
                            linalg::Complex y) {
    ac_add(ctx, a, a, y);
    ac_add(ctx, b, b, y);
    ac_add(ctx, a, b, -y);
    ac_add(ctx, b, a, -y);
  }

 private:
  std::string name_;
};

}  // namespace ironic::spice
