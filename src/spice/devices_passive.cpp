#include "src/spice/devices_passive.hpp"

#include <cmath>
#include <stdexcept>

namespace ironic::spice {
namespace {

// An element value must be finite and > 0: NaN fails every comparison,
// and an infinite resistance would stamp a zero conductance, a silent
// open circuit.
bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance),
      conductance_(1.0 / resistance) {
  if (!positive_finite(resistance_)) {
    throw std::invalid_argument("Resistor: resistance must be finite and > 0");
  }
}

void Resistor::stamp(StampContext& ctx) {
  stamp_conductance(ctx, a_, b_, conductance_);
}

void Resistor::stamp_ac(AcStampContext& ctx) const {
  ac_admittance(ctx, a_, b_, linalg::Complex{1.0 / resistance_, 0.0});
}

void Resistor::set_resistance(double r) {
  if (!positive_finite(r)) {
    throw std::invalid_argument("Resistor: resistance must be finite and > 0");
  }
  resistance_ = r;
  conductance_ = 1.0 / r;
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance,
                     double initial_voltage)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance), ic_(initial_voltage) {
  if (!positive_finite(capacitance_)) {
    throw std::invalid_argument("Capacitor: capacitance must be finite and > 0");
  }
}

double Capacitor::branch_voltage(std::span<const double> x) const {
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];
  return va - vb;
}

void Capacitor::initialize(std::span<const double> x0) {
  v_state_ = (ic_ != 0.0) ? ic_ : branch_voltage(x0);
  i_state_ = 0.0;
  has_history_ = false;
}

void Capacitor::stamp(StampContext& ctx) {
  if (ctx.dc) return;  // open circuit at DC
  const bool trap = ctx.integrator == Integrator::kTrapezoidal && has_history_;
  const double g = (trap ? 2.0 : 1.0) * capacitance_ / ctx.dt;
  // Device current a -> b: i = g (va - vb) + i0.
  const double i0 = trap ? (-g * v_state_ - i_state_) : (-g * v_state_);
  stamp_conductance(ctx, a_, b_, g);
  stamp_current(ctx, a_, b_, i0);
}

void Capacitor::stamp_ac(AcStampContext& ctx) const {
  ac_admittance(ctx, a_, b_, linalg::Complex{0.0, ctx.omega * capacitance_});
}

void Capacitor::accept_step(std::span<const double> x, double /*time*/, double dt,
                            Integrator integrator) {
  const bool trap = integrator == Integrator::kTrapezoidal && has_history_;
  const double g = (trap ? 2.0 : 1.0) * capacitance_ / dt;
  const double v_new = branch_voltage(x);
  const double i_new = trap ? (g * (v_new - v_state_) - i_state_) : (g * (v_new - v_state_));
  v_state_ = v_new;
  i_state_ = i_new;
  has_history_ = true;
}

void Capacitor::save_state(std::vector<double>& out) const {
  out.push_back(v_state_);
  out.push_back(i_state_);
  out.push_back(has_history_ ? 1.0 : 0.0);
}

std::size_t Capacitor::restore_state(std::span<const double> in) {
  if (in.size() < 3) throw std::invalid_argument("Capacitor::restore_state: blob too short");
  v_state_ = in[0];
  i_state_ = in[1];
  has_history_ = in[2] != 0.0;
  return 3;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance,
                   double series_resistance, double initial_current)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      inductance_(inductance),
      esr_(series_resistance),
      ic_(initial_current) {
  if (!positive_finite(inductance_)) {
    throw std::invalid_argument("Inductor: inductance must be finite and > 0");
  }
  if (!(std::isfinite(esr_) && esr_ >= 0.0)) {
    throw std::invalid_argument("Inductor: series resistance must be finite and >= 0");
  }
}

void Inductor::setup(Circuit& ckt) { branch_ = ckt.allocate_branch(name()); }

void Inductor::initialize(std::span<const double> x0) {
  const double i_from_op =
      branch_ >= 0 && static_cast<std::size_t>(branch_) < x0.size()
          ? x0[static_cast<std::size_t>(branch_)]
          : 0.0;
  i_state_ = (ic_ != 0.0) ? ic_ : i_from_op;
  const double va = a_ == kGround ? 0.0 : x0[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x0[static_cast<std::size_t>(b_)];
  v_state_ = va - vb - esr_ * i_state_;
  has_history_ = false;
}

void Inductor::stamp(StampContext& ctx) {
  // KCL coupling: branch current leaves a, enters b.
  add_a(ctx, a_, branch_, 1.0);
  add_a(ctx, b_, branch_, -1.0);
  // Branch equation.
  add_a(ctx, branch_, a_, 1.0);
  add_a(ctx, branch_, b_, -1.0);
  if (ctx.dc) {
    add_a(ctx, branch_, branch_, -std::max(esr_, 1e-9));  // DC short (tiny R for pivoting)
    return;
  }
  const bool trap = ctx.integrator == Integrator::kTrapezoidal && has_history_;
  const double zl = (trap ? 2.0 : 1.0) * inductance_ / ctx.dt;
  add_a(ctx, branch_, branch_, -(esr_ + zl));
  const double rhs = trap ? (-zl * i_state_ - v_state_) : (-zl * i_state_);
  add_rhs(ctx, branch_, rhs);
}

void Inductor::stamp_ac(AcStampContext& ctx) const {
  ac_add(ctx, a_, branch_, {1.0, 0.0});
  ac_add(ctx, b_, branch_, {-1.0, 0.0});
  ac_add(ctx, branch_, a_, {1.0, 0.0});
  ac_add(ctx, branch_, b_, {-1.0, 0.0});
  ac_add(ctx, branch_, branch_, -linalg::Complex{esr_, ctx.omega * inductance_});
}

void Inductor::accept_step(std::span<const double> x, double /*time*/, double /*dt*/,
                           Integrator /*integrator*/) {
  i_state_ = x[static_cast<std::size_t>(branch_)];
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];
  v_state_ = va - vb - esr_ * i_state_;
  has_history_ = true;
}

void Inductor::save_state(std::vector<double>& out) const {
  out.push_back(i_state_);
  out.push_back(v_state_);
  out.push_back(has_history_ ? 1.0 : 0.0);
}

std::size_t Inductor::restore_state(std::span<const double> in) {
  if (in.size() < 3) throw std::invalid_argument("Inductor::restore_state: blob too short");
  i_state_ = in[0];
  v_state_ = in[1];
  has_history_ = in[2] != 0.0;
  return 3;
}

// --------------------------------------------------------- CoupledInductors

CoupledInductors::CoupledInductors(std::string name, NodeId p1, NodeId p2, NodeId s1,
                                   NodeId s2, double l_primary, double l_secondary,
                                   double coupling, double r_primary, double r_secondary)
    : Device(std::move(name)),
      p1_(p1),
      p2_(p2),
      s1_(s1),
      s2_(s2),
      l1_(l_primary),
      l2_(l_secondary),
      coupling_(coupling),
      mutual_(coupling * std::sqrt(l_primary * l_secondary)),
      r1_(r_primary),
      r2_(r_secondary) {
  if (!positive_finite(l1_) || !positive_finite(l2_)) {
    throw std::invalid_argument("CoupledInductors: inductances must be finite and > 0");
  }
  if (!(coupling_ >= 0.0 && coupling_ < 1.0)) {
    throw std::invalid_argument("CoupledInductors: coupling must be in [0, 1)");
  }
}

void CoupledInductors::set_coupling(double coupling) {
  if (!(coupling >= 0.0 && coupling < 1.0)) {
    throw std::invalid_argument("CoupledInductors: coupling must be in [0, 1)");
  }
  coupling_ = coupling;
  mutual_ = coupling * std::sqrt(l1_ * l2_);
}

void CoupledInductors::setup(Circuit& ckt) {
  bp_ = ckt.allocate_branch(name() + ".p");
  bs_ = ckt.allocate_branch(name() + ".s");
}

void CoupledInductors::initialize(std::span<const double> x0) {
  const auto volt = [&](NodeId n) {
    return n == kGround ? 0.0 : x0[static_cast<std::size_t>(n)];
  };
  i1_state_ = x0.size() > static_cast<std::size_t>(bp_) ? x0[static_cast<std::size_t>(bp_)] : 0.0;
  i2_state_ = x0.size() > static_cast<std::size_t>(bs_) ? x0[static_cast<std::size_t>(bs_)] : 0.0;
  v1_state_ = volt(p1_) - volt(p2_) - r1_ * i1_state_;
  v2_state_ = volt(s1_) - volt(s2_) - r2_ * i2_state_;
  has_history_ = false;
}

void CoupledInductors::stamp(StampContext& ctx) {
  // KCL coupling for both windings.
  add_a(ctx, p1_, bp_, 1.0);
  add_a(ctx, p2_, bp_, -1.0);
  add_a(ctx, s1_, bs_, 1.0);
  add_a(ctx, s2_, bs_, -1.0);
  // Branch voltage rows.
  add_a(ctx, bp_, p1_, 1.0);
  add_a(ctx, bp_, p2_, -1.0);
  add_a(ctx, bs_, s1_, 1.0);
  add_a(ctx, bs_, s2_, -1.0);
  if (ctx.dc) {
    add_a(ctx, bp_, bp_, -std::max(r1_, 1e-9));
    add_a(ctx, bs_, bs_, -std::max(r2_, 1e-9));
    return;
  }
  const bool trap = ctx.integrator == Integrator::kTrapezoidal && has_history_;
  const double scale = (trap ? 2.0 : 1.0) / ctx.dt;
  const double z11 = scale * l1_;
  const double z22 = scale * l2_;
  const double zm = scale * mutual_;
  add_a(ctx, bp_, bp_, -(r1_ + z11));
  add_a(ctx, bp_, bs_, -zm);
  add_a(ctx, bs_, bs_, -(r2_ + z22));
  add_a(ctx, bs_, bp_, -zm);
  const double rhs1 = -(z11 * i1_state_ + zm * i2_state_) - (trap ? v1_state_ : 0.0);
  const double rhs2 = -(z22 * i2_state_ + zm * i1_state_) - (trap ? v2_state_ : 0.0);
  add_rhs(ctx, bp_, rhs1);
  add_rhs(ctx, bs_, rhs2);
}

void CoupledInductors::stamp_ac(AcStampContext& ctx) const {
  ac_add(ctx, p1_, bp_, {1.0, 0.0});
  ac_add(ctx, p2_, bp_, {-1.0, 0.0});
  ac_add(ctx, s1_, bs_, {1.0, 0.0});
  ac_add(ctx, s2_, bs_, {-1.0, 0.0});
  ac_add(ctx, bp_, p1_, {1.0, 0.0});
  ac_add(ctx, bp_, p2_, {-1.0, 0.0});
  ac_add(ctx, bs_, s1_, {1.0, 0.0});
  ac_add(ctx, bs_, s2_, {-1.0, 0.0});
  ac_add(ctx, bp_, bp_, -linalg::Complex{r1_, ctx.omega * l1_});
  ac_add(ctx, bp_, bs_, -linalg::Complex{0.0, ctx.omega * mutual_});
  ac_add(ctx, bs_, bs_, -linalg::Complex{r2_, ctx.omega * l2_});
  ac_add(ctx, bs_, bp_, -linalg::Complex{0.0, ctx.omega * mutual_});
}

void CoupledInductors::accept_step(std::span<const double> x, double /*time*/, double /*dt*/,
                                   Integrator /*integrator*/) {
  const auto volt = [&](NodeId n) {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n)];
  };
  i1_state_ = x[static_cast<std::size_t>(bp_)];
  i2_state_ = x[static_cast<std::size_t>(bs_)];
  v1_state_ = volt(p1_) - volt(p2_) - r1_ * i1_state_;
  v2_state_ = volt(s1_) - volt(s2_) - r2_ * i2_state_;
  has_history_ = true;
}

void CoupledInductors::save_state(std::vector<double>& out) const {
  out.push_back(i1_state_);
  out.push_back(i2_state_);
  out.push_back(v1_state_);
  out.push_back(v2_state_);
  out.push_back(has_history_ ? 1.0 : 0.0);
}

std::size_t CoupledInductors::restore_state(std::span<const double> in) {
  if (in.size() < 5) {
    throw std::invalid_argument("CoupledInductors::restore_state: blob too short");
  }
  i1_state_ = in[0];
  i2_state_ = in[1];
  v1_state_ = in[2];
  v2_state_ = in[3];
  has_history_ = in[4] != 0.0;
  return 5;
}


// ------------------------------------------------------------- reflection

DeviceInfo Resistor::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kResistor;
  d.terminals = {{"+", a_, TerminalDc::kConducting}, {"-", b_, TerminalDc::kConducting}};
  d.value = resistance_;
  d.has_value = true;
  return d;
}

void Resistor::check_params(std::vector<std::string>& errors,
                            std::vector<std::string>& /*warnings*/) const {
  if (!positive_finite(resistance_)) errors.push_back("resistance must be finite and > 0");
}

DeviceInfo Capacitor::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kCapacitor;
  d.terminals = {{"+", a_, TerminalDc::kBlocking}, {"-", b_, TerminalDc::kBlocking}};
  d.value = capacitance_;
  d.has_value = true;
  return d;
}

void Capacitor::check_params(std::vector<std::string>& errors,
                             std::vector<std::string>& /*warnings*/) const {
  if (!positive_finite(capacitance_)) errors.push_back("capacitance must be finite and > 0");
}

DeviceInfo Inductor::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kInductor;
  d.terminals = {{"+", a_, TerminalDc::kConducting}, {"-", b_, TerminalDc::kConducting}};
  d.value = inductance_;
  d.has_value = true;
  if (esr_ == 0.0) d.rigid_pairs = {{0, 1}};  // ideal winding: a DC short
  return d;
}

void Inductor::check_params(std::vector<std::string>& errors,
                            std::vector<std::string>& /*warnings*/) const {
  if (!positive_finite(inductance_)) errors.push_back("inductance must be finite and > 0");
  if (!(std::isfinite(esr_) && esr_ >= 0.0)) {
    errors.push_back("series resistance must be finite and >= 0");
  }
}

DeviceInfo CoupledInductors::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kCoupledInductors;
  d.terminals = {{"p1", p1_, TerminalDc::kConducting},
                 {"p2", p2_, TerminalDc::kConducting},
                 {"s1", s1_, TerminalDc::kConducting},
                 {"s2", s2_, TerminalDc::kConducting}};
  d.dc_groups = {{0, 1}, {2, 3}};  // windings are galvanically isolated
  if (r1_ == 0.0) d.rigid_pairs.push_back({0, 1});
  if (r2_ == 0.0) d.rigid_pairs.push_back({2, 3});
  return d;
}

void CoupledInductors::check_params(std::vector<std::string>& errors,
                                    std::vector<std::string>& warnings) const {
  if (!positive_finite(l1_) || !positive_finite(l2_)) {
    errors.push_back("winding inductances must be finite and > 0");
  }
  if (!(coupling_ >= 0.0 && coupling_ < 1.0)) {
    errors.push_back("coupling coefficient must be in [0, 1)");
  } else if (coupling_ > 0.0 && coupling_ < 1e-6) {
    warnings.push_back("coupling coefficient " + std::to_string(coupling_) +
                       " is vanishingly small -- windings are effectively uncoupled");
  }
}

}  // namespace ironic::spice
