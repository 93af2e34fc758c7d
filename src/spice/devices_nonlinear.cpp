#include "src/spice/devices_nonlinear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/constants.hpp"

namespace ironic::spice {
namespace {

// Classic SPICE pn-junction limiting: keep Newton from overshooting the
// diode exponential. `vt` is n kT/q, `vcrit` the critical voltage.
double pnjlim(double v_new, double v_old, double vt, double vcrit) {
  if (v_new > vcrit && std::abs(v_new - v_old) > 2.0 * vt) {
    if (v_old > 0.0) {
      const double arg = 1.0 + (v_new - v_old) / vt;
      return arg > 0.0 ? v_old + vt * std::log(arg) : vcrit;
    }
    return vt * std::log(v_new / vt);
  }
  return v_new;
}

// Diode current and conductance at junction voltage v.
struct JunctionEval {
  double i = 0.0;
  double g = 0.0;
};

JunctionEval eval_junction(double v, double is, double vt) {
  JunctionEval out;
  if (v >= -5.0 * vt) {
    const double e = std::exp(std::min(v / vt, 80.0));
    out.i = is * (e - 1.0);
    out.g = is / vt * e;
  } else {
    // Deep reverse: flat leakage with a tiny slope for Newton stability.
    out.g = is / vt * std::exp(-5.0);
    out.i = -is + out.g * (v + 5.0 * vt);
  }
  return out;
}

// Adds reverse-breakdown conduction below -bv to a junction evaluation.
JunctionEval eval_junction_with_breakdown(double v, const DiodeParams& p, double vt) {
  JunctionEval out = eval_junction(v, p.saturation_current, vt);
  if (p.breakdown_voltage > 0.0) {
    const double arg = std::min(-(v + p.breakdown_voltage) / vt, 80.0);
    const double e = std::exp(arg);
    out.i -= p.breakdown_is * e;
    out.g += p.breakdown_is / vt * e;
  }
  return out;
}

// Thermal voltage of the MOSFET bulk junctions, which have no temperature
// parameter.
constexpr double kBulkJunctionVt = constants::thermal_voltage(300.15);

}  // namespace

// -------------------------------------------------------------------- Diode

Diode::Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode), params_(params) {
  if (params_.saturation_current <= 0.0) {
    throw std::invalid_argument("Diode: saturation current must be > 0");
  }
  vt_n_ = params_.emission_coeff * constants::thermal_voltage(params_.temperature);
  vcrit_ = vt_n_ * std::log(vt_n_ / (std::sqrt(2.0) * params_.saturation_current));
}

double Diode::current(double v) const {
  return eval_junction_with_breakdown(v, params_, vt_n_).i;
}

void Diode::start_step(double /*time*/, double /*dt*/) { have_prev_ = false; }

void Diode::stamp_ac(AcStampContext& ctx) const {
  const double v = ctx.v_op(anode_) - ctx.v_op(cathode_);
  const JunctionEval j = eval_junction_with_breakdown(v, params_, vt_n_);
  ac_admittance(ctx, anode_, cathode_, {j.g + kGmin, 0.0});
}

void Diode::stamp(StampContext& ctx) {
  const double v_raw = ctx.v(anode_) - ctx.v(cathode_);
  double v = v_raw;
  if (have_prev_) v = pnjlim(v, v_prev_, vt_n_, vcrit_);
  if (std::abs(v - v_raw) > 1e-9) ctx.limited = true;
  v_prev_ = v;
  have_prev_ = true;

  const JunctionEval j = eval_junction_with_breakdown(v, params_, vt_n_);
  const double g = j.g + kGmin;
  const double i0 = j.i - j.g * v;  // companion current at zero volts
  stamp_conductance(ctx, anode_, cathode_, g);
  stamp_current(ctx, anode_, cathode_, i0);
}

// ------------------------------------------------------------------- Mosfet

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source, NodeId bulk,
               MosParams params)
    : Device(std::move(name)),
      d_(drain),
      g_(gate),
      s_(source),
      b_(bulk),
      params_(params),
      polarity_(params.type == MosType::kNmos ? 1.0 : -1.0),
      junction_vcrit_(kBulkJunctionVt *
                      std::log(kBulkJunctionVt / (std::sqrt(2.0) * params_.junction_is))),
      sqrt_phi_(std::sqrt(params_.phi)),
      beta_(params_.beta()) {
  if (params_.w <= 0.0 || params_.l <= 0.0) {
    throw std::invalid_argument("Mosfet: W and L must be > 0");
  }
  // Pair each entry of the fixed order with the swapped list's entries
  // for the same slot, first with first: terminals that share a node
  // (drain == bulk) give one slot two contributions, and they keep
  // their swapped order.
  channel_ = channel_entries(d_, s_);
  const auto swapped = channel_entries(s_, d_);
  std::array<bool, 8> taken{};
  for (std::size_t k = 0; k < channel_.size(); ++k) {
    std::uint8_t j = 0;
    while (taken[j] || !(swapped[j] == channel_[k])) ++j;
    taken[j] = true;
    swapped_value_[k] = j;
  }
}

std::array<Mosfet::Entry, 8> Mosfet::channel_entries(NodeId nd, NodeId ns) const {
  return {{{nd, g_}, {nd, nd}, {nd, b_}, {nd, ns},
           {ns, g_}, {ns, nd}, {ns, b_}, {ns, ns}}};
}

void Mosfet::start_step(double /*time*/, double /*dt*/) {
  have_prev_ = false;
  have_bs_prev_ = false;
  have_bd_prev_ = false;
}

Mosfet::Operating Mosfet::evaluate(double vgs, double vds, double vbs) const {
  // All arguments are in the polarity frame with vds >= 0.
  Operating op;
  const double phi = params_.phi;
  const double vbs_clamped = std::min(vbs, phi - 0.02);
  const double sqrt_arg = std::sqrt(phi - vbs_clamped);
  const double vth = params_.vt0 + params_.gamma * (sqrt_arg - sqrt_phi_);
  const double dvth_dvbs = -params_.gamma / (2.0 * sqrt_arg);
  const double vov = vgs - vth;
  if (vov <= 0.0) return op;  // cutoff: engine gmin keeps the node pinned

  const double beta = beta_;
  const double clm = 1.0 + params_.lambda * vds;
  if (vds >= vov) {
    // Saturation.
    op.ids = 0.5 * beta * vov * vov * clm;
    op.gm = beta * vov * clm;
    op.gds = 0.5 * beta * vov * vov * params_.lambda;
  } else {
    // Triode.
    op.ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
    op.gm = beta * vds * clm;
    op.gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * params_.lambda;
  }
  // Body transconductance via the threshold-voltage chain rule.
  op.gmb = op.gm * (-dvth_dvbs);
  return op;
}

double Mosfet::drain_current(double vd, double vg, double vs, double vb) const {
  // Polarity frame.
  double fvd = polarity_ * vd;
  double fvg = polarity_ * vg;
  double fvs = polarity_ * vs;
  double fvb = polarity_ * vb;
  const bool swapped = fvd < fvs;
  if (swapped) std::swap(fvd, fvs);
  const Operating op = evaluate(fvg - fvs, fvd - fvs, fvb - fvs);
  const double ids = swapped ? -op.ids : op.ids;
  return polarity_ * ids;  // current into the drain terminal
}

void Mosfet::stamp_bulk_junction(StampContext& ctx, NodeId anode, NodeId cathode,
                                 double& v_prev, bool& have_prev) {
  // Both terminals on ground (M2's bulk-source junction): the junction
  // sits at 0 V, limits nothing and every stamp it makes lands on ground.
  if (anode == kGround && cathode == kGround) return;
  const double v_raw = ctx.v(anode) - ctx.v(cathode);
  double v = v_raw;
  if (have_prev) v = pnjlim(v, v_prev, kBulkJunctionVt, junction_vcrit_);
  if (std::abs(v - v_raw) > 1e-9) ctx.limited = true;
  v_prev = v;
  have_prev = true;
  const JunctionEval j = eval_junction(v, params_.junction_is, kBulkJunctionVt);
  stamp_conductance(ctx, anode, cathode, j.g + kGmin);
  stamp_current(ctx, anode, cathode, j.i - j.g * v);
}

void Mosfet::stamp(StampContext& ctx) {
  // Terminal voltages in the polarity frame.
  const double avd = ctx.v(d_), avg = ctx.v(g_), avs = ctx.v(s_), avb = ctx.v(b_);
  double fvd = polarity_ * avd;
  double fvg = polarity_ * avg;
  double fvs = polarity_ * avs;
  double fvb = polarity_ * avb;

  // Source/drain swap so the evaluated frame always has vds >= 0.
  NodeId nd = d_, ns = s_;
  const bool swapped = fvd < fvs;
  if (swapped) {
    std::swap(fvd, fvs);
    std::swap(nd, ns);
  }
  double vgs = fvg - fvs;
  double vds = fvd - fvs;
  const double vbs = fvb - fvs;

  // Per-iteration limiting: bound the change of vgs/vds to 1 V.
  if (have_prev_) {
    const double vgs_raw = vgs;
    const double vds_raw = vds;
    vgs = vgs_prev_ + std::clamp(vgs - vgs_prev_, -1.0, 1.0);
    vds = vds_prev_ + std::clamp(vds - vds_prev_, -1.0, 1.0);
    if (std::abs(vgs - vgs_raw) > 1e-9 || std::abs(vds - vds_raw) > 1e-9) {
      ctx.limited = true;
    }
  }
  vgs_prev_ = vgs;
  vds_prev_ = vds;
  have_prev_ = true;

  const Operating op = evaluate(vgs, vds, vbs);

  // Linearized drain current around the (limited) evaluation point.
  // In actual node voltages the derivative columns are
  //   dI/dvg = gm, dI/dvd_eff = gds, dI/dvb = gmb, dI/dvs_eff = -(gm+gds+gmb),
  // and the constant companion term uses the limited frame voltages so the
  // stamp reproduces the evaluated current exactly at this iterate.
  // The values follow channel_entries(nd, ns), but the calls go out in
  // the (d_, s_) order in both orientations, so every assembly replays
  // the solver's recorded stamp sequence; swapped_value_ keeps each
  // slot's values in the order channel_entries(nd, ns) lists them.
  const double gsum = op.gm + op.gds + op.gmb;
  const std::array<double, 8> value = {op.gm,  op.gds,  op.gmb,  -gsum,
                                       -op.gm, -op.gds, -op.gmb, gsum};
  for (std::size_t k = 0; k < channel_.size(); ++k) {
    add_a(ctx, channel_[k].row, channel_[k].col,
          value[swapped ? swapped_value_[k] : k]);
  }

  const double i0 =
      polarity_ * (op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs);
  stamp_current(ctx, nd, ns, i0);

  // Convergence aid: a floor conductance across the channel.
  stamp_conductance(ctx, d_, s_, kGmin);

  if (params_.bulk_diodes) {
    // NMOS: p-bulk to n-source/drain junctions (anode = bulk).
    // PMOS: n-bulk, junctions point the other way.
    if (params_.type == MosType::kNmos) {
      stamp_bulk_junction(ctx, b_, s_, vbs_j_prev_, have_bs_prev_);
      stamp_bulk_junction(ctx, b_, d_, vbd_j_prev_, have_bd_prev_);
    } else {
      stamp_bulk_junction(ctx, s_, b_, vbs_j_prev_, have_bs_prev_);
      stamp_bulk_junction(ctx, d_, b_, vbd_j_prev_, have_bd_prev_);
    }
  }
}

void Mosfet::stamp_ac(AcStampContext& ctx) const {
  // Small-signal conductances at the DC operating point, same frame and
  // swap logic as the large-signal stamp.
  double fvd = polarity_ * ctx.v_op(d_);
  const double fvg = polarity_ * ctx.v_op(g_);
  double fvs = polarity_ * ctx.v_op(s_);
  const double fvb = polarity_ * ctx.v_op(b_);
  NodeId nd = d_, ns = s_;
  if (fvd < fvs) {
    std::swap(fvd, fvs);
    std::swap(nd, ns);
  }
  const Operating op = evaluate(fvg - fvs, fvd - fvs, fvb - fvs);
  const double gsum = op.gm + op.gds + op.gmb;
  ac_add(ctx, nd, g_, {op.gm, 0.0});
  ac_add(ctx, nd, nd, {op.gds, 0.0});
  ac_add(ctx, nd, b_, {op.gmb, 0.0});
  ac_add(ctx, nd, ns, {-gsum, 0.0});
  ac_add(ctx, ns, g_, {-op.gm, 0.0});
  ac_add(ctx, ns, nd, {-op.gds, 0.0});
  ac_add(ctx, ns, b_, {-op.gmb, 0.0});
  ac_add(ctx, ns, ns, {gsum, 0.0});
  ac_admittance(ctx, d_, s_, {kGmin, 0.0});
  if (params_.bulk_diodes) {
    const auto stamp_junction = [&](NodeId anode, NodeId cathode) {
      const double v = ctx.v_op(anode) - ctx.v_op(cathode);
      const JunctionEval j = eval_junction(v, params_.junction_is, kBulkJunctionVt);
      ac_admittance(ctx, anode, cathode, {j.g + kGmin, 0.0});
    };
    if (params_.type == MosType::kNmos) {
      stamp_junction(b_, s_);
      stamp_junction(b_, d_);
    } else {
      stamp_junction(s_, b_);
      stamp_junction(d_, b_);
    }
  }
}

// ------------------------------------------------------------- SmoothSwitch

SmoothSwitch::SmoothSwitch(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn,
                           SwitchParams params)
    : Device(std::move(name)), a_(a), b_(b), cp_(cp), cn_(cn), params_(params) {
  if (params_.r_on <= 0.0 || params_.r_off <= params_.r_on) {
    throw std::invalid_argument("SmoothSwitch: need 0 < r_on < r_off");
  }
  if (params_.v_on == params_.v_off) {
    throw std::invalid_argument("SmoothSwitch: v_on must differ from v_off");
  }
  ln_g_on_ = std::log(1.0 / params_.r_on);
  ln_g_off_ = std::log(1.0 / params_.r_off);
}

double SmoothSwitch::conductance(double vc) const {
  const double raw = (vc - params_.v_off) / (params_.v_on - params_.v_off);
  const double s = std::clamp(raw, 0.0, 1.0);
  const double smooth = s * s * (3.0 - 2.0 * s);
  return std::exp(ln_g_off_ + smooth * (ln_g_on_ - ln_g_off_));
}

void SmoothSwitch::start_step(double /*time*/, double /*dt*/) { have_prev_ = false; }

void SmoothSwitch::stamp(StampContext& ctx) {
  double vc = ctx.v(cp_) - ctx.v(cn_);
  // Bound the per-iteration control-voltage change so Newton walks
  // through the transition region instead of leaping over it.
  if (have_prev_) {
    const double vc_raw = vc;
    const double max_step = std::max(0.5 * std::abs(params_.v_on - params_.v_off), 0.1);
    vc = vc_prev_ + std::clamp(vc - vc_prev_, -max_step, max_step);
    if (std::abs(vc - vc_raw) > 1e-9) ctx.limited = true;
  }
  vc_prev_ = vc;
  have_prev_ = true;

  const double vd = ctx.v(a_) - ctx.v(b_);
  const double g = conductance(vc);

  // dG/dvc from the smoothstep in log space.
  const double raw = (vc - params_.v_off) / (params_.v_on - params_.v_off);
  double dg_dvc = 0.0;
  if (raw > 0.0 && raw < 1.0) {
    const double ds_dvc = 1.0 / (params_.v_on - params_.v_off);
    const double dsmooth = 6.0 * raw * (1.0 - raw) * ds_dvc;
    dg_dvc = g * (ln_g_on_ - ln_g_off_) * dsmooth;
  }

  // I = G(vc) vd; linearize in (va, vb, vcp, vcn). The matrix terms
  // reproduce G vd + cross vc at the iterate, so the constant companion
  // current is what is left of I_k = G vd_k after subtracting them.
  const double cross = dg_dvc * vd;
  stamp_conductance(ctx, a_, b_, g);
  add_a(ctx, a_, cp_, cross);
  add_a(ctx, a_, cn_, -cross);
  add_a(ctx, b_, cp_, -cross);
  add_a(ctx, b_, cn_, cross);
  const double vc_actual = ctx.v(cp_) - ctx.v(cn_);
  stamp_current(ctx, a_, b_, -cross * vc_actual);
}

void SmoothSwitch::stamp_ac(AcStampContext& ctx) const {
  const double vc = ctx.v_op(cp_) - ctx.v_op(cn_);
  const double vd = ctx.v_op(a_) - ctx.v_op(b_);
  const double g = conductance(vc);
  const double raw = (vc - params_.v_off) / (params_.v_on - params_.v_off);
  double dg_dvc = 0.0;
  if (raw > 0.0 && raw < 1.0) {
    const double ds_dvc = 1.0 / (params_.v_on - params_.v_off);
    dg_dvc = g * (ln_g_on_ - ln_g_off_) * 6.0 * raw * (1.0 - raw) * ds_dvc;
  }
  const double cross = dg_dvc * vd;
  ac_admittance(ctx, a_, b_, {g, 0.0});
  ac_add(ctx, a_, cp_, {cross, 0.0});
  ac_add(ctx, a_, cn_, {-cross, 0.0});
  ac_add(ctx, b_, cp_, {-cross, 0.0});
  ac_add(ctx, b_, cn_, {cross, 0.0});
}

// -------------------------------------------------------------------- OpAmp

OpAmp::OpAmp(std::string name, NodeId out, NodeId inp, NodeId inn, OpAmpParams params)
    : Device(std::move(name)), out_(out), inp_(inp), inn_(inn), params_(params) {
  if (params_.v_out_max <= params_.v_out_min) {
    throw std::invalid_argument("OpAmp: v_out_max must exceed v_out_min");
  }
  if (params_.gain <= 0.0) throw std::invalid_argument("OpAmp: gain must be > 0");
}

void OpAmp::setup(Circuit& ckt) { branch_ = ckt.allocate_branch(name()); }

double OpAmp::transfer(double v_diff) const {
  const double mid = 0.5 * (params_.v_out_max + params_.v_out_min);
  const double half = 0.5 * (params_.v_out_max - params_.v_out_min);
  return mid + half * std::tanh(params_.gain * (v_diff - params_.input_offset) / half);
}

void OpAmp::start_step(double /*time*/, double /*dt*/) { have_prev_ = false; }

void OpAmp::stamp_ac(AcStampContext& ctx) const {
  const double vd = ctx.v_op(inp_) - ctx.v_op(inn_);
  const double half = 0.5 * (params_.v_out_max - params_.v_out_min);
  const double th = std::tanh(params_.gain * (vd - params_.input_offset) / half);
  const double fprime = params_.gain * (1.0 - th * th);
  ac_add(ctx, out_, branch_, {1.0, 0.0});
  ac_add(ctx, branch_, out_, {1.0, 0.0});
  ac_add(ctx, branch_, inp_, {-fprime, 0.0});
  ac_add(ctx, branch_, inn_, {fprime, 0.0});
}

void OpAmp::stamp(StampContext& ctx) {
  double vd = ctx.v(inp_) - ctx.v(inn_);
  if (have_prev_) {
    const double vd_raw = vd;
    // Walk the differential input in bounded steps so the evaluation
    // point cannot leap across the (narrow) linear region each iteration.
    vd = vd_prev_ + std::clamp(vd - vd_prev_, -0.1, 0.1);
    if (std::abs(vd - vd_raw) > 1e-9) ctx.limited = true;
  }
  vd_prev_ = vd;
  have_prev_ = true;
  const double half = 0.5 * (params_.v_out_max - params_.v_out_min);
  const double th = std::tanh(params_.gain * (vd - params_.input_offset) / half);
  const double f = transfer(vd);
  const double fprime = params_.gain * (1.0 - th * th);

  // Branch equation: v(out) - f'(vd_k) (v(inp) - v(inn)) = f(vd_k) - f'(vd_k) vd_k.
  add_a(ctx, out_, branch_, 1.0);
  add_a(ctx, branch_, out_, 1.0);
  add_a(ctx, branch_, inp_, -fprime);
  add_a(ctx, branch_, inn_, fprime);
  add_rhs(ctx, branch_, f - fprime * vd);
}


// ------------------------------------------------------------- reflection

DeviceInfo Diode::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kDiode;
  d.terminals = {{"a", anode_, TerminalDc::kConducting},
                 {"k", cathode_, TerminalDc::kConducting}};
  d.voltage_rating = params_.breakdown_voltage;  // 0 = unrated
  return d;
}

void Diode::check_params(std::vector<std::string>& errors,
                         std::vector<std::string>& warnings) const {
  if (params_.saturation_current <= 0.0) {
    errors.push_back("saturation current must be > 0");
  } else if (params_.saturation_current > 1e-3) {
    warnings.push_back("saturation current " + std::to_string(params_.saturation_current) +
                       " A is implausibly large for a junction diode");
  }
  if (params_.emission_coeff < 0.5 || params_.emission_coeff > 10.0) {
    warnings.push_back("emission coefficient " + std::to_string(params_.emission_coeff) +
                       " is outside the usual [0.5, 10] range");
  }
  if (params_.breakdown_voltage < 0.0) {
    errors.push_back("breakdown voltage must be >= 0 (magnitude)");
  }
}

DeviceInfo Mosfet::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kMosfet;
  d.terminals = {{"d", d_, TerminalDc::kConducting},
                 {"g", g_, TerminalDc::kSensing},
                 {"s", s_, TerminalDc::kConducting},
                 {"b", b_, params_.bulk_diodes ? TerminalDc::kConducting
                                               : TerminalDc::kSensing}};
  return d;
}

void Mosfet::check_params(std::vector<std::string>& errors,
                          std::vector<std::string>& warnings) const {
  if (params_.w <= 0.0 || params_.l <= 0.0) errors.push_back("W and L must be > 0");
  if (params_.kp <= 0.0) errors.push_back("transconductance parameter KP must be > 0");
  if (params_.lambda < 0.0) errors.push_back("channel-length modulation must be >= 0");
  if (params_.w > 0.0 && params_.l > 0.0) {
    const double ratio = params_.w / params_.l;
    if (ratio < 1e-2 || ratio > 1e5) {
      warnings.push_back("W/L ratio " + std::to_string(ratio) +
                         " is outside the plausible [0.01, 1e5] range");
    }
  }
  if (std::abs(params_.vt0) > 5.0) {
    warnings.push_back("threshold magnitude " + std::to_string(params_.vt0) +
                       " V is implausibly large");
  }
}

DeviceInfo SmoothSwitch::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kSwitch;
  d.terminals = {{"+", a_, TerminalDc::kConducting},
                 {"-", b_, TerminalDc::kConducting},
                 {"cp", cp_, TerminalDc::kSensing},
                 {"cn", cn_, TerminalDc::kSensing}};
  d.dc_groups = {{0, 1}};
  return d;
}

void SmoothSwitch::check_params(std::vector<std::string>& errors,
                                std::vector<std::string>& warnings) const {
  if (!(params_.r_on > 0.0) || !(params_.r_off > params_.r_on)) {
    errors.push_back("need 0 < r_on < r_off");
  } else if (params_.r_off / params_.r_on > 1e12) {
    warnings.push_back("r_off/r_on ratio exceeds 1e12 -- expect an ill-conditioned"
                       " MNA matrix near the switching threshold");
  }
  if (params_.v_on == params_.v_off) errors.push_back("v_on must differ from v_off");
}

DeviceInfo OpAmp::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kOpAmp;
  d.terminals = {{"out", out_, TerminalDc::kConducting},
                 {"inp", inp_, TerminalDc::kSensing},
                 {"inn", inn_, TerminalDc::kSensing}};
  d.rigid_to_ground = {0};  // output voltage is pinned by the macromodel
  d.has_output_range = true;
  d.output_min = params_.v_out_min;
  d.output_max = params_.v_out_max;
  return d;
}

void OpAmp::check_params(std::vector<std::string>& errors,
                         std::vector<std::string>& warnings) const {
  if (params_.v_out_max <= params_.v_out_min) {
    errors.push_back("v_out_max must exceed v_out_min");
  }
  if (params_.gain <= 0.0) {
    errors.push_back("gain must be > 0");
  } else if (params_.gain < 1.0) {
    warnings.push_back("gain below 1 -- the macromodel degenerates to an attenuator");
  }
}

}  // namespace ironic::spice

