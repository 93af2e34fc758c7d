// Linear passive elements: resistor, capacitor, inductor, coupled coils.
//
// Reactive elements use companion models: backward Euler on the first
// step after initialization (no history yet), then the integrator the
// engine selects (trapezoidal by default).
#pragma once

#include "src/spice/circuit.hpp"
#include "src/spice/device.hpp"

namespace ironic::spice {

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);
  void stamp(StampContext& ctx) override;
  // Matrix only, no state.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = false, .rhs_stamp = false};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  double resistance() const { return resistance_; }
  void set_resistance(double r);
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId a_, b_;
  double resistance_;
  double conductance_;  // 1 / resistance_, what every stamp adds
};

class Capacitor final : public Device {
 public:
  // `initial_voltage` seeds the companion state when the transient starts
  // from initial conditions rather than a DC operating point.
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance,
            double initial_voltage = 0.0);
  void stamp(StampContext& ctx) override;
  // History current on rhs, updated on acceptance.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = true, .rhs_stamp = true};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  void initialize(std::span<const double> x0) override;
  void accept_step(std::span<const double> x, double time, double dt,
                   Integrator integrator) override;
  void save_state(std::vector<double>& out) const override;
  std::size_t restore_state(std::span<const double> in) override;
  double capacitance() const { return capacitance_; }
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  double branch_voltage(std::span<const double> x) const;

  NodeId a_, b_;
  double capacitance_;
  double ic_;
  double v_state_ = 0.0;  // voltage at last accepted point
  double i_state_ = 0.0;  // current at last accepted point (trap history)
  bool has_history_ = false;
};

class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance,
           double series_resistance = 0.0, double initial_current = 0.0);
  void setup(Circuit& ckt) override;
  void stamp(StampContext& ctx) override;
  // History voltage on rhs, updated on acceptance.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = true, .rhs_stamp = true};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  void initialize(std::span<const double> x0) override;
  void accept_step(std::span<const double> x, double time, double dt,
                   Integrator integrator) override;
  void save_state(std::vector<double>& out) const override;
  std::size_t restore_state(std::span<const double> in) override;
  double inductance() const { return inductance_; }
  double esr() const { return esr_; }
  int branch_index() const { return branch_; }
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId a_, b_;
  double inductance_;
  double esr_;
  double ic_;
  int branch_ = -1;
  double i_state_ = 0.0;  // current at last accepted point
  double v_state_ = 0.0;  // inductive voltage L di/dt at last accepted point
  bool has_history_ = false;
};

// Two magnetically coupled inductors (the inductive power/data link).
//
//   v1 = L1 di1/dt + M di2/dt + R1 i1
//   v2 = M  di1/dt + L2 di2/dt + R2 i2,  M = k sqrt(L1 L2)
//
// Branch currents are tracked for both windings; traces are named
// "i(<name>.p)" (primary) and "i(<name>.s)" (secondary).
class CoupledInductors final : public Device {
 public:
  CoupledInductors(std::string name, NodeId p1, NodeId p2, NodeId s1, NodeId s2,
                   double l_primary, double l_secondary, double coupling,
                   double r_primary = 0.0, double r_secondary = 0.0);
  void setup(Circuit& ckt) override;
  void stamp(StampContext& ctx) override;
  // History voltages on rhs, updated on acceptance.
  StepHooks step_hooks() const override {
    return {.start_step = false, .accept_step = true, .rhs_stamp = true};
  }
  void stamp_ac(AcStampContext& ctx) const override;
  void initialize(std::span<const double> x0) override;
  void accept_step(std::span<const double> x, double time, double dt,
                   Integrator integrator) override;
  void save_state(std::vector<double>& out) const override;
  std::size_t restore_state(std::span<const double> in) override;

  double mutual() const { return mutual_; }
  double coupling() const { return coupling_; }
  double l_primary() const { return l1_; }
  double l_secondary() const { return l2_; }
  double r_primary() const { return r1_; }
  double r_secondary() const { return r2_; }
  // Retune the link (e.g. a distance change between transient runs).
  void set_coupling(double coupling);
  int primary_branch() const { return bp_; }
  int secondary_branch() const { return bs_; }
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId p1_, p2_, s1_, s2_;
  double l1_, l2_, coupling_, mutual_, r1_, r2_;
  int bp_ = -1, bs_ = -1;
  double i1_state_ = 0.0, i2_state_ = 0.0;
  double v1_state_ = 0.0, v2_state_ = 0.0;  // inductive (flux) voltages
  bool has_history_ = false;
};

}  // namespace ironic::spice
