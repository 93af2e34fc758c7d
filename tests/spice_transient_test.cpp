#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/waveform.hpp"
#include "src/util/constants.hpp"

namespace {

using namespace ironic::spice;
namespace constants = ironic::constants;

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // 1 V step into R = 1k, C = 1 uF; tau = 1 ms.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-6);

  TransientOptions opts;
  opts.t_stop = 5e-3;
  opts.dt_max = 1e-6;
  const auto res = run_transient(ckt, opts);

  for (double t : {0.5e-3, 1e-3, 2e-3, 4e-3}) {
    const double expected = 1.0 - std::exp(-t / 1e-3);
    EXPECT_NEAR(res.value_at("v(out)", t), expected, 2e-4) << "at t=" << t;
  }
}

TEST(Transient, RcDischargeFromInitialCondition) {
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<Capacitor>("C1", n, kGround, 1e-6, /*initial_voltage=*/2.0);
  ckt.add<Resistor>("R1", n, kGround, 1e3);

  TransientOptions opts;
  opts.t_stop = 3e-3;
  opts.dt_max = 1e-6;
  const auto res = run_transient(ckt, opts);

  // Under use-initial-conditions the t = 0 record is the zero vector; the
  // node assumes the capacitor IC on the first accepted step.
  EXPECT_NEAR(res.value_at("v(n)", 5e-6), 2.0, 0.02);
  EXPECT_NEAR(res.value_at("v(n)", 1e-3), 2.0 * std::exp(-1.0), 2e-3);
  EXPECT_NEAR(res.value_at("v(n)", 3e-3), 2.0 * std::exp(-3.0), 2e-3);
}

TEST(Transient, RlCurrentRise) {
  // 1 V step into R = 10 in series with L = 10 mH; tau = 1 ms.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, mid, 10.0);
  ckt.add<Inductor>("L1", mid, kGround, 10e-3);

  TransientOptions opts;
  opts.t_stop = 5e-3;
  opts.dt_max = 1e-6;
  const auto res = run_transient(ckt, opts);

  for (double t : {1e-3, 2e-3, 5e-3}) {
    const double expected = 0.1 * (1.0 - std::exp(-t / 1e-3));
    EXPECT_NEAR(res.value_at("i(L1)", t), expected, 2e-5) << "at t=" << t;
  }
}

TEST(Transient, LcTankRingsAtResonance) {
  // C = 100 nF charged to 1 V rings into L = 10 uH: f0 = 159.2 kHz.
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<Capacitor>("C1", n, kGround, 100e-9, /*initial_voltage=*/1.0);
  ckt.add<Inductor>("L1", n, kGround, 10e-6);

  TransientOptions opts;
  opts.t_stop = 60e-6;
  opts.dt_max = 10e-9;
  const auto res = run_transient(ckt, opts);

  // Find the first two falling zero crossings -> period.
  double t1 = 0.0, t2 = 0.0;
  ASSERT_TRUE(res.first_crossing("v(n)", 0.0, 1e-9, /*rising=*/false, t1));
  ASSERT_TRUE(res.first_crossing("v(n)", 0.0, t1 + 2e-6, false, t2));
  const double period = t2 - t1;
  const double f0 = 1.0 / (constants::kTwoPi * std::sqrt(10e-6 * 100e-9));
  EXPECT_NEAR(1.0 / period, f0, f0 * 0.01);

  // Trapezoidal integration preserves the oscillation amplitude.
  const double late_peak = res.max_between("v(n)", 40e-6, 60e-6);
  EXPECT_GT(late_peak, 0.98);
  EXPECT_LT(late_peak, 1.02);
}

TEST(Transient, BackwardEulerDampsLcTank) {
  // Property contrast: BE is dissipative, trapezoidal is not.
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<Capacitor>("C1", n, kGround, 100e-9, 1.0);
  ckt.add<Inductor>("L1", n, kGround, 10e-6);

  TransientOptions opts;
  opts.t_stop = 60e-6;
  opts.dt_max = 10e-9;
  opts.integrator = Integrator::kBackwardEuler;
  const auto res = run_transient(ckt, opts);
  const double late_peak = res.max_between("v(n)", 40e-6, 60e-6);
  EXPECT_LT(late_peak, 0.95);
}

TEST(Transient, TransformerVoltageRatio) {
  // Equal inductances, k = 0.95: open-circuit secondary sees ~k * v1.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto sec = ckt.node("sec");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<CoupledInductors>("T1", in, kGround, sec, kGround, 10e-6, 10e-6, 0.95);
  ckt.add<Resistor>("RL", sec, kGround, 1e6);  // ~open

  TransientOptions opts;
  opts.t_stop = 5e-6;
  opts.dt_max = 1e-9;
  const auto res = run_transient(ckt, opts);
  const double peak = res.peak_abs_between("v(sec)", 2e-6, 5e-6);
  EXPECT_NEAR(peak, 0.95, 0.01);
}

TEST(Transient, TransformerTurnsRatioScalesVoltage) {
  // L2 = 4 L1 -> turns ratio 2 -> open-circuit secondary ~ 2 k v1.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto sec = ckt.node("sec");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e6));
  ckt.add<CoupledInductors>("T1", in, kGround, sec, kGround, 10e-6, 40e-6, 0.9);
  ckt.add<Resistor>("RL", sec, kGround, 1e6);

  TransientOptions opts;
  opts.t_stop = 5e-6;
  opts.dt_max = 1e-9;
  const auto res = run_transient(ckt, opts);
  const double peak = res.peak_abs_between("v(sec)", 2e-6, 5e-6);
  EXPECT_NEAR(peak, 1.8, 0.05);
}

TEST(Transient, HalfWaveRectifierChargesCapacitor) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(3.0, 1e6));
  ckt.add<Diode>("D1", in, out);
  ckt.add<Capacitor>("Co", out, kGround, 10e-9);
  ckt.add<Resistor>("RL", out, kGround, 10e3);

  TransientOptions opts;
  opts.t_stop = 20e-6;
  opts.dt_max = 2e-9;
  const auto res = run_transient(ckt, opts);

  const double v_final = res.mean_between("v(out)", 15e-6, 20e-6);
  // Peak minus one diode drop, minus load droop.
  EXPECT_GT(v_final, 2.0);
  EXPECT_LT(v_final, 3.0);
  // Monotone charge-up: late value above early value.
  EXPECT_GT(v_final, res.value_at("v(out)", 2e-6));
}

TEST(Transient, PulseBreakpointsAreHitExactly) {
  Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround,
                         Waveform::pulse(0.0, 1.0, 1e-6, 1e-9, 1e-9, 1e-6, 0.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);

  TransientOptions opts;
  opts.t_stop = 4e-6;
  opts.dt_max = 0.3e-6;  // deliberately incommensurate with the edges
  const auto res = run_transient(ckt, opts);

  // The waveform right before/after the rising edge must be resolved even
  // though dt_max (300 ns) is much larger than the edge (1 ns).
  EXPECT_NEAR(res.value_at("v(in)", 0.99e-6), 0.0, 1e-6);
  EXPECT_NEAR(res.value_at("v(in)", 1.2e-6), 1.0, 1e-6);
  EXPECT_NEAR(res.value_at("v(in)", 2.2e-6), 0.0, 1e-6);
}

TEST(Transient, SmoothSwitchTogglesLoad) {
  SwitchParams sp;
  sp.r_on = 1.0;
  sp.r_off = 1e8;
  sp.v_on = 1.2;
  sp.v_off = 0.6;
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto c = ckt.node("ctl");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<VoltageSource>("Vc", c, kGround,
                         Waveform::pulse(0.0, 1.8, 5e-6, 0.1e-6, 0.1e-6, 5e-6, 0.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<SmoothSwitch>("S1", out, kGround, c, kGround, sp);

  TransientOptions opts;
  opts.t_stop = 15e-6;
  opts.dt_max = 50e-9;
  const auto res = run_transient(ckt, opts);

  EXPECT_NEAR(res.value_at("v(out)", 3e-6), 1.0, 1e-3);    // switch off
  EXPECT_NEAR(res.value_at("v(out)", 8e-6), 1.0 / 1001.0, 1e-4);  // switch on
  EXPECT_NEAR(res.value_at("v(out)", 14e-6), 1.0, 1e-3);   // off again
}

TEST(Transient, RecordSignalSubsetAndDecimation) {
  Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 1e3);

  TransientOptions opts;
  opts.t_stop = 1e-3;
  opts.dt_max = 1e-6;
  opts.record_every = 10;
  opts.record_signals = {"v(in)"};
  const auto res = run_transient(ckt, opts);
  EXPECT_TRUE(res.has_signal("v(in)"));
  EXPECT_FALSE(res.has_signal("i(V1)"));
  // ~1000 accepted steps / 10 + initial point.
  EXPECT_LT(res.num_points(), 140u);
  EXPECT_GT(res.num_points(), 80u);
}

TEST(Transient, StatsArePopulated) {
  Circuit ckt;
  const auto in = ckt.node("in");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 1e3));
  ckt.add<Resistor>("R1", in, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 1e-3;
  opts.dt_max = 1e-6;
  TransientStats stats;
  run_transient(ckt, opts, &stats);
  EXPECT_GE(stats.accepted_steps, 999u);
  EXPECT_GE(stats.newton_iterations, stats.accepted_steps);
}

// Both times must be finite and > 0, and every recorded signal must
// exist; each bad option throws before any work.
TEST(Transient, InvalidOptionsRejected) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-3);
  TransientOptions valid;
  valid.t_stop = 1e-4;
  valid.dt_max = 1e-6;
  valid.record_signals = {"v(out)"};
  EXPECT_GT(run_transient(ckt, valid).num_points(), 90u);

  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    TransientOptions stop = valid;
    stop.t_stop = bad;
    EXPECT_THROW(run_transient(ckt, stop), std::invalid_argument)
        << "t_stop " << bad;
    TransientOptions step = valid;
    step.dt_max = bad;
    EXPECT_THROW(run_transient(ckt, step), std::invalid_argument)
        << "dt_max " << bad;
  }
  TransientOptions unknown = valid;
  unknown.record_signals = {"v(nonexistent)"};
  EXPECT_THROW(run_transient(ckt, unknown), std::invalid_argument);
}

// The caller's dt_max sets the step of a linear run; left unset it is
// 1 us.
TEST(Transient, StepHonorsCallerDtMax) {
  const auto build = [](Circuit& circuit) {
    const auto in = circuit.node("in");
    const auto out = circuit.node("out");
    circuit.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
    circuit.add<Resistor>("R1", in, out, 1e3);
    circuit.add<Capacitor>("C1", out, kGround, 1e-3);
  };

  TransientOptions options;
  options.t_stop = 1e-4;
  options.record_signals = {"v(out)"};

  Circuit coarse;
  build(coarse);
  TransientOptions coarse_options = options;
  coarse_options.dt_max = 1e-5;
  const auto with_coarse = run_transient(coarse, coarse_options);

  Circuit fine;
  build(fine);
  TransientOptions fine_options = options;
  fine_options.dt_max = 1e-6;
  const auto with_fine = run_transient(fine, fine_options);

  Circuit unset;
  build(unset);
  const auto with_default = run_transient(unset, options);

  // 1e-5 steps over 1e-4 is ~10 points; 1e-6 is ~100.
  EXPECT_LT(with_coarse.num_points() * 5, with_fine.num_points());
  EXPECT_EQ(with_default.num_points(), with_fine.num_points());
}

TEST(Transient, CapacitorVoltageContinuityAcrossSteps) {
  // Property: with trapezoidal integration the capacitor charge matches
  // the integral of its current (checked through the source branch).
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::sine(1.0, 10e3));
  ckt.add<Resistor>("R1", in, out, 100.0);
  ckt.add<Capacitor>("C1", out, kGround, 100e-9);

  TransientOptions opts;
  opts.t_stop = 0.2e-3;
  opts.dt_max = 0.1e-6;
  const auto res = run_transient(ckt, opts);

  // i_C = (v(in) - v(out)) / R; integrate and compare to C dv.
  const auto& t = res.time();
  const auto vin = res.signal("v(in)");
  const auto vout = res.signal("v(out)");
  double charge = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double i1 = (vin[i] - vout[i]) / 100.0;
    const double i0 = (vin[i - 1] - vout[i - 1]) / 100.0;
    charge += 0.5 * (i1 + i0) * (t[i] - t[i - 1]);
  }
  const double dv = vout.back() - vout.front();
  EXPECT_NEAR(charge, 100e-9 * dv, 1e-11);
}

}  // namespace
