// Nonlinear devices: pn diode, level-1 MOSFET, smooth switch, op-amp.
//
// All nonlinear devices stamp Newton companion models (conductance +
// equivalent current) linearized at the present iterate, with classic
// SPICE-style junction limiting to keep the exponentials tame.
#pragma once

#include <array>
#include <cstdint>

#include "src/spice/circuit.hpp"
#include "src/spice/device.hpp"

namespace ironic::spice {

struct DiodeParams {
  double saturation_current = 1e-14;  // Is [A]
  double emission_coeff = 1.0;        // n
  double temperature = 300.15;        // [K]
  // Reverse (Zener/avalanche) breakdown: 0 disables it. With a value,
  // the diode conducts exponentially once v < -breakdown_voltage — a
  // single-device alternative to the paper's four-diode clamp chain.
  double breakdown_voltage = 0.0;     // [V]
  double breakdown_is = 1e-6;         // breakdown knee current scale [A]
};

class Diode final : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params = {});
  void stamp(StampContext& ctx) override;
  void stamp_ac(AcStampContext& ctx) const override;
  void start_step(double time, double dt) override;
  bool nonlinear() const override { return true; }
  // Limiting state reset per point; companion current on rhs.
  StepHooks step_hooks() const override {
    return {.start_step = true, .accept_step = false, .rhs_stamp = true};
  }

  // Junction current at voltage v (exposed for tests and model fitting).
  double current(double v) const;
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId anode_, cathode_;
  DiodeParams params_;
  double vt_n_;     // n kT/q
  double vcrit_;    // critical voltage for pnjlim
  double v_prev_ = 0.0;
  bool have_prev_ = false;
};

enum class MosType { kNmos, kPmos };

// Level-1 (Shichman–Hodges) MOSFET with channel-length modulation, body
// effect, and optional bulk junction diodes. Parameter defaults are a
// generic 0.18 um-class device; the pm/ netlists override W/L per instance.
struct MosParams {
  MosType type = MosType::kNmos;
  double vt0 = 0.5;        // zero-bias threshold [V] (magnitude; sign from type)
  double kp = 170e-6;      // transconductance parameter u Cox [A/V^2]
  double w = 10e-6;        // channel width [m]
  double l = 0.18e-6;      // channel length [m]
  double lambda = 0.05;    // channel-length modulation [1/V]
  double gamma = 0.4;      // body-effect coefficient [sqrt(V)]
  double phi = 0.7;        // surface potential [V]
  bool bulk_diodes = true; // include bulk-source/bulk-drain junctions
  double junction_is = 1e-15;  // bulk junction saturation current [A]

  double beta() const { return kp * w / l; }
};

class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source, NodeId bulk,
         MosParams params);
  void stamp(StampContext& ctx) override;
  void stamp_ac(AcStampContext& ctx) const override;
  void start_step(double time, double dt) override;
  bool nonlinear() const override { return true; }
  // Limiting state reset per point; companion current on rhs.
  StepHooks step_hooks() const override {
    return {.start_step = true, .accept_step = false, .rhs_stamp = true};
  }
  const MosParams& params() const { return params_; }

  // Static drain current for given terminal voltages (exposed for tests).
  double drain_current(double vd, double vg, double vs, double vb) const;
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  struct Operating {
    double ids = 0.0;  // polarity-frame drain current (d_eff -> s_eff)
    double gm = 0.0, gds = 0.0, gmb = 0.0;
  };
  Operating evaluate(double vgs, double vds, double vbs) const;
  void stamp_bulk_junction(StampContext& ctx, NodeId anode, NodeId cathode,
                           double& v_prev, bool& have_prev);

  // One channel matrix entry: (row, column) node pair.
  struct Entry {
    NodeId row, col;
    bool operator==(const Entry&) const = default;
  };
  // The channel stamp's eight entries for an evaluated (drain, source).
  std::array<Entry, 8> channel_entries(NodeId nd, NodeId ns) const;

  NodeId d_, g_, s_, b_;
  MosParams params_;
  double polarity_;  // +1 NMOS, -1 PMOS
  double junction_vcrit_;  // bulk-junction critical voltage for pnjlim
  double sqrt_phi_;  // sqrt(params_.phi)
  double beta_;      // params_.beta()
  // stamp issues channel_entries(d_, s_) in both orientations. Swapped,
  // entry k takes the value the swapped list gives entry
  // swapped_value_[k], so every slot still sums its contributions in
  // the swapped list's order.
  std::array<Entry, 8> channel_;
  std::array<std::uint8_t, 8> swapped_value_{};
  // Per-iteration limiting state.
  double vgs_prev_ = 0.0, vds_prev_ = 0.0;
  bool have_prev_ = false;
  double vbs_j_prev_ = 0.0, vbd_j_prev_ = 0.0;
  bool have_bs_prev_ = false, have_bd_prev_ = false;
};

// Voltage-controlled switch with a smooth (C1) log-resistance transition
// between `r_off` and `r_on` as the control voltage v(cp) - v(cn) moves
// from `v_off` to `v_on`. v_on < v_off yields an active-low switch.
struct SwitchParams {
  double r_on = 1.0;
  double r_off = 1e9;
  double v_on = 1.0;
  double v_off = 0.0;
};

class SmoothSwitch final : public Device {
 public:
  SmoothSwitch(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn,
               SwitchParams params = {});
  void stamp(StampContext& ctx) override;
  void stamp_ac(AcStampContext& ctx) const override;
  void start_step(double time, double dt) override;
  bool nonlinear() const override { return true; }
  // Limiting state reset per point; companion current on rhs.
  StepHooks step_hooks() const override {
    return {.start_step = true, .accept_step = false, .rhs_stamp = true};
  }

  // Conductance as a function of control voltage (exposed for tests).
  double conductance(double vc) const;
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId a_, b_, cp_, cn_;
  SwitchParams params_;
  double ln_g_on_, ln_g_off_;
  double vc_prev_ = 0.0;
  bool have_prev_ = false;
};

// Single-pole-free behavioural op-amp / comparator macromodel:
// v(out) = vmid + vhalf * tanh(gain * (v(inp) - v(inn) - offset) / vhalf).
// With a large gain this doubles as a rail-to-rail comparator.
struct OpAmpParams {
  double gain = 1e5;
  double v_out_min = 0.0;
  double v_out_max = 1.8;
  double input_offset = 0.0;
};

class OpAmp final : public Device {
 public:
  OpAmp(std::string name, NodeId out, NodeId inp, NodeId inn, OpAmpParams params = {});
  void setup(Circuit& ckt) override;
  void stamp(StampContext& ctx) override;
  void stamp_ac(AcStampContext& ctx) const override;
  void start_step(double time, double dt) override;
  bool nonlinear() const override { return true; }
  // Limiting state reset per point; companion current on rhs.
  StepHooks step_hooks() const override {
    return {.start_step = true, .accept_step = false, .rhs_stamp = true};
  }

  // Transfer function (exposed for tests).
  double transfer(double v_diff) const;
  DeviceInfo info() const override;
  void check_params(std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) const override;

 private:
  NodeId out_, inp_, inn_;
  OpAmpParams params_;
  int branch_ = -1;
  // Per-iteration limiting: the tanh saturates so hard that Newton can
  // chatter rail-to-rail without it.
  double vd_prev_ = 0.0;
  bool have_prev_ = false;
};

}  // namespace ironic::spice
