// Independent and linear controlled sources.
#pragma once

#include "src/spice/circuit.hpp"
#include "src/spice/device.hpp"
#include "src/spice/waveform.hpp"

namespace ironic::spice {

// Ideal independent voltage source; positive terminal `a`.
// The branch current ("i(<name>)") flows from a through the source to b,
// so a source delivering power to the circuit shows a negative current.
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId a, NodeId b, Waveform waveform);
  void setup(Circuit& ckt) override;
  void stamp(StampContext& ctx) override;
  // The stimulus is on rhs; no state.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = false, .rhs_stamp = true};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  // AC analysis stimulus: phasor magnitude/phase (0 -> AC short).
  void set_ac(double magnitude, double phase_rad = 0.0) {
    ac_magnitude_ = magnitude;
    ac_phase_ = phase_rad;
  }
  void collect_breakpoints(double t0, double t1, std::vector<double>& out) const override;
  int branch_index() const { return branch_; }
  void set_waveform(Waveform waveform) { waveform_ = std::move(waveform); }
  const Waveform& waveform() const { return waveform_; }
  DeviceInfo info() const override;

 private:
  NodeId a_, b_;
  Waveform waveform_;
  int branch_ = -1;
  double ac_magnitude_ = 0.0;
  double ac_phase_ = 0.0;
};

// Ideal independent current source; current flows from a to b through it.
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, NodeId a, NodeId b, Waveform waveform);
  void stamp(StampContext& ctx) override;
  // The stimulus is on rhs; no state.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = false, .rhs_stamp = true};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  void set_ac(double magnitude, double phase_rad = 0.0) {
    ac_magnitude_ = magnitude;
    ac_phase_ = phase_rad;
  }
  void collect_breakpoints(double t0, double t1, std::vector<double>& out) const override;
  void set_waveform(Waveform waveform) { waveform_ = std::move(waveform); }
  const Waveform& waveform() const { return waveform_; }
  DeviceInfo info() const override;

 private:
  NodeId a_, b_;
  Waveform waveform_;
  double ac_magnitude_ = 0.0;
  double ac_phase_ = 0.0;
};

// Linear voltage-controlled voltage source: v(a,b) = gain * v(cp,cn).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn, double gain);
  void setup(Circuit& ckt) override;
  void stamp(StampContext& ctx) override;
  // Matrix only, no state.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = false, .rhs_stamp = false};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  DeviceInfo info() const override;

 private:
  NodeId a_, b_, cp_, cn_;
  double gain_;
  int branch_ = -1;
};

// Linear voltage-controlled current source: i(a->b) = gm * v(cp,cn).
class Vccs final : public Device {
 public:
  Vccs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn,
       double transconductance);
  void stamp(StampContext& ctx) override;
  // Matrix only, no state.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = false, .rhs_stamp = false};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  DeviceInfo info() const override;

 private:
  NodeId a_, b_, cp_, cn_;
  double gm_;
};

}  // namespace ironic::spice
