// Independent and linear controlled sources.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>

#include "src/spice/circuit.hpp"
#include "src/spice/device.hpp"
#include "src/spice/waveform.hpp"

namespace ironic::spice {

// An independent source's waveform, evaluated once per stamped time: the
// value is keyed on the time's bits, so the Newton iterations of one time
// point and the right-hand-side restamps of a held matrix reuse it,
// whichever engine path stamps. A new waveform drops the value.
class StampedWaveform {
 public:
  explicit StampedWaveform(Waveform waveform) : waveform_(std::move(waveform)) {}
  double operator()(double t) {
    const auto bits = std::bit_cast<std::uint64_t>(t);
    if (!valid_ || bits != time_bits_) {
      value_ = waveform_(t);
      time_bits_ = bits;
      valid_ = true;
    }
    return value_;
  }
  const Waveform& waveform() const { return waveform_; }
  void set(Waveform waveform) {
    waveform_ = std::move(waveform);
    valid_ = false;
  }

 private:
  Waveform waveform_;
  std::uint64_t time_bits_ = 0;
  double value_ = 0.0;
  bool valid_ = false;
};

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
  void set_waveform(Waveform waveform) { waveform_.set(std::move(waveform)); }
  const Waveform& waveform() const { return waveform_.waveform(); }
  DeviceInfo info() const override;

 private:
  NodeId a_, b_;
  StampedWaveform waveform_;
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
  void set_waveform(Waveform waveform) { waveform_.set(std::move(waveform)); }
  const Waveform& waveform() const { return waveform_.waveform(); }
  DeviceInfo info() const override;

 private:
  NodeId a_, b_;
  StampedWaveform waveform_;
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
