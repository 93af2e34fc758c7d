#include "src/spice/devices_sources.hpp"

namespace ironic::spice {

// ------------------------------------------------------------ VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b, Waveform waveform)
    : Device(std::move(name)), a_(a), b_(b), waveform_(std::move(waveform)) {}

void VoltageSource::setup(Circuit& ckt) { branch_ = ckt.allocate_branch(name()); }

void VoltageSource::stamp(StampContext& ctx) {
  add_a(ctx, a_, branch_, 1.0);
  add_a(ctx, b_, branch_, -1.0);
  add_a(ctx, branch_, a_, 1.0);
  add_a(ctx, branch_, b_, -1.0);
  const double value = waveform_(ctx.dc ? 0.0 : ctx.time) * ctx.source_scale;
  add_rhs(ctx, branch_, value);
}

void VoltageSource::stamp_ac(AcStampContext& ctx) const {
  ac_add(ctx, a_, branch_, {1.0, 0.0});
  ac_add(ctx, b_, branch_, {-1.0, 0.0});
  ac_add(ctx, branch_, a_, {1.0, 0.0});
  ac_add(ctx, branch_, b_, {-1.0, 0.0});
  ac_rhs(ctx, branch_, std::polar(ac_magnitude_, ac_phase_));
}

void VoltageSource::collect_breakpoints(double t0, double t1,
                                        std::vector<double>& out) const {
  waveform().breakpoints(t0, t1, out);
}

// ------------------------------------------------------------ CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b, Waveform waveform)
    : Device(std::move(name)), a_(a), b_(b), waveform_(std::move(waveform)) {}

void CurrentSource::stamp(StampContext& ctx) {
  const double value = waveform_(ctx.dc ? 0.0 : ctx.time) * ctx.source_scale;
  stamp_current(ctx, a_, b_, value);
}

void CurrentSource::stamp_ac(AcStampContext& ctx) const {
  const linalg::Complex i = std::polar(ac_magnitude_, ac_phase_);
  ac_rhs(ctx, a_, -i);
  ac_rhs(ctx, b_, i);
}

void CurrentSource::collect_breakpoints(double t0, double t1,
                                        std::vector<double>& out) const {
  waveform().breakpoints(t0, t1, out);
}

// --------------------------------------------------------------------- Vcvs

Vcvs::Vcvs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn, double gain)
    : Device(std::move(name)), a_(a), b_(b), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::setup(Circuit& ckt) { branch_ = ckt.allocate_branch(name()); }

void Vcvs::stamp(StampContext& ctx) {
  add_a(ctx, a_, branch_, 1.0);
  add_a(ctx, b_, branch_, -1.0);
  // v(a) - v(b) - gain (v(cp) - v(cn)) = 0
  add_a(ctx, branch_, a_, 1.0);
  add_a(ctx, branch_, b_, -1.0);
  add_a(ctx, branch_, cp_, -gain_);
  add_a(ctx, branch_, cn_, gain_);
}

void Vcvs::stamp_ac(AcStampContext& ctx) const {
  ac_add(ctx, a_, branch_, {1.0, 0.0});
  ac_add(ctx, b_, branch_, {-1.0, 0.0});
  ac_add(ctx, branch_, a_, {1.0, 0.0});
  ac_add(ctx, branch_, b_, {-1.0, 0.0});
  ac_add(ctx, branch_, cp_, {-gain_, 0.0});
  ac_add(ctx, branch_, cn_, {gain_, 0.0});
}

// --------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn,
           double transconductance)
    : Device(std::move(name)), a_(a), b_(b), cp_(cp), cn_(cn), gm_(transconductance) {}

void Vccs::stamp(StampContext& ctx) {
  // Current a -> b equals gm (v(cp) - v(cn)).
  add_a(ctx, a_, cp_, gm_);
  add_a(ctx, a_, cn_, -gm_);
  add_a(ctx, b_, cp_, -gm_);
  add_a(ctx, b_, cn_, gm_);
}

void Vccs::stamp_ac(AcStampContext& ctx) const {
  ac_add(ctx, a_, cp_, {gm_, 0.0});
  ac_add(ctx, a_, cn_, {-gm_, 0.0});
  ac_add(ctx, b_, cp_, {-gm_, 0.0});
  ac_add(ctx, b_, cn_, {gm_, 0.0});
}


// ------------------------------------------------------------- reflection

DeviceInfo VoltageSource::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kVoltageSource;
  d.terminals = {{"+", a_, TerminalDc::kConducting}, {"-", b_, TerminalDc::kConducting}};
  d.rigid_pairs = {{0, 1}};
  d.has_source_range = waveform().value_range(d.source_min, d.source_max);
  d.stimulus_timescale = waveform().min_timescale();
  return d;
}

DeviceInfo CurrentSource::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kCurrentSource;
  // A current source forces a branch current but establishes no DC path:
  // the node voltages on either side are set entirely by the rest of the
  // circuit, so for connectivity purposes its terminals are blocking.
  d.terminals = {{"+", a_, TerminalDc::kBlocking}, {"-", b_, TerminalDc::kBlocking}};
  d.has_source_range = waveform().value_range(d.source_min, d.source_max);
  d.stimulus_timescale = waveform().min_timescale();
  return d;
}

DeviceInfo Vcvs::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kVcvs;
  d.terminals = {{"+", a_, TerminalDc::kConducting},
                 {"-", b_, TerminalDc::kConducting},
                 {"cp", cp_, TerminalDc::kSensing},
                 {"cn", cn_, TerminalDc::kSensing}};
  d.dc_groups = {{0, 1}};
  d.rigid_pairs = {{0, 1}};
  d.has_gain = true;
  d.gain = gain_;
  return d;
}

DeviceInfo Vccs::info() const {
  DeviceInfo d;
  d.kind = DeviceKind::kVccs;
  d.terminals = {{"+", a_, TerminalDc::kBlocking},
                 {"-", b_, TerminalDc::kBlocking},
                 {"cp", cp_, TerminalDc::kSensing},
                 {"cn", cn_, TerminalDc::kSensing}};
  d.has_gain = true;
  d.gain = gm_;
  return d;
}

}  // namespace ironic::spice
