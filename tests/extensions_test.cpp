// Tests for the extension features: Zener breakdown, power-on reset, and
// the Monte-Carlo tolerance analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/tolerance.hpp"
#include "src/pm/por.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"

namespace {

using namespace ironic;
using namespace ironic::spice;

// ------------------------------------------------------------------- Zener

TEST(Zener, ConductsBeyondBreakdown) {
  DiodeParams zp;
  zp.breakdown_voltage = 3.0;
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto k = ckt.node("k");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(-5.0));
  ckt.add<Resistor>("R1", in, k, 1e3);
  // Reverse-biased: anode at the driven node.
  ckt.add<Diode>("Dz", k, kGround, zp);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // The Zener pins its terminal near -3 V; the rest drops across R.
  EXPECT_NEAR(dc.x[static_cast<std::size_t>(k)], -3.1, 0.25);
}

TEST(Zener, BlocksInsideBreakdown) {
  DiodeParams zp;
  zp.breakdown_voltage = 3.0;
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto k = ckt.node("k");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(-2.0));
  ckt.add<Resistor>("R1", in, k, 1e3);
  ckt.add<Diode>("Dz", k, kGround, zp);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_LT(dc.x[static_cast<std::size_t>(k)], -1.95);  // essentially open
}

TEST(Zener, ForwardBehaviourUnchanged) {
  DiodeParams zp;
  zp.breakdown_voltage = 3.0;
  Diode d{"D", 0, 1, zp};
  Diode plain{"Dp", 0, 1, DiodeParams{}};
  EXPECT_NEAR(d.current(0.6), plain.current(0.6), plain.current(0.6) * 1e-6);
}

TEST(Zener, SingleZenerReplacesClampChain) {
  // Design alternative to the paper's 4-diode clamp: one 3 V Zener from
  // Vo to ground caps the output the same way.
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  const auto vo = ckt.node("vo");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(6.0, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 50.0);
  DiodeParams rect_dp;
  rect_dp.saturation_current = 1e-16;
  ckt.add<Diode>("Dr", vi, vo, rect_dp);
  ckt.add<Capacitor>("Co", vo, kGround, 10e-9);
  DiodeParams zp;
  zp.breakdown_voltage = 3.0;
  ckt.add<Diode>("Dz", kGround, vo, zp);  // cathode at Vo: clamps Vo <= ~3 V
  TransientOptions opts;
  opts.t_stop = 30e-6;
  opts.dt_max = 5e-9;
  const auto res = run_transient(ckt, opts);
  EXPECT_LT(res.max_between("v(vo)", 0.0, 30e-6), 3.4);
  EXPECT_GT(res.mean_between("v(vo)", 25e-6, 30e-6), 2.6);
}

// --------------------------------------------------------------------- POR

spice::TransientResult ramp_rail(double t_ramp, double dip_at = -1.0,
                                 double dip_level = 1.5) {
  Circuit ckt;
  const auto rail = ckt.node("rail");
  std::vector<double> ts{0.0, t_ramp};
  std::vector<double> vs{0.0, 2.75};
  if (dip_at > 0.0) {
    ts.insert(ts.end(), {dip_at, dip_at + 5e-6, dip_at + 30e-6, dip_at + 35e-6});
    vs.insert(vs.end(), {2.75, dip_level, dip_level, 2.75});
  }
  ckt.add<VoltageSource>("Vr", rail, kGround, Waveform::pwl(ts, vs));
  ckt.add<Resistor>("R1", rail, kGround, 1e6);
  TransientOptions opts;
  opts.t_stop = (dip_at > 0.0 ? dip_at + 60e-6 : t_ramp * 2.0);
  opts.dt_max = 0.5e-6;
  return run_transient(ckt, opts);
}

TEST(Por, ReleasesAfterQualificationDelay) {
  const auto trace = ramp_rail(100e-6);
  pm::PorModel por;
  double t = 0.0;
  ASSERT_TRUE(por.release_time(trace, "v(rail)", t));
  // Rail crosses 2.2 V at 80 us; release after the 20 us delay.
  EXPECT_NEAR(t, 80e-6 + por.spec().delay, 5e-6);
}

TEST(Por, NeverReleasesOnStarvedRail) {
  Circuit ckt;
  const auto rail = ckt.node("rail");
  ckt.add<VoltageSource>("Vr", rail, kGround, Waveform::dc(1.8));
  ckt.add<Resistor>("R1", rail, kGround, 1e6);
  TransientOptions opts;
  opts.t_stop = 200e-6;
  opts.dt_max = 1e-6;
  const auto trace = run_transient(ckt, opts);
  pm::PorModel por;
  double t = 0.0;
  EXPECT_FALSE(por.release_time(trace, "v(rail)", t));
}

TEST(Por, DetectsBrownout) {
  pm::PorModel por;
  // Dip to 1.5 V (below the 1.9 V assert threshold): brown-out.
  EXPECT_TRUE(por.brownout_after_release(ramp_rail(100e-6, 200e-6, 1.5), "v(rail)"));
  // Dip only to 2.0 V (inside hysteresis): ride-through.
  EXPECT_FALSE(por.brownout_after_release(ramp_rail(100e-6, 200e-6, 2.0), "v(rail)"));
}

TEST(Por, CircuitMacroReleasesHighAfterRailSettles) {
  Circuit ckt;
  const auto rail = ckt.node("rail");
  ckt.add<VoltageSource>("Vr", rail, kGround,
                         Waveform::pwl({0.0, 100e-6}, {0.0, 2.75}));
  const auto por = pm::build_por(ckt, "por", rail);
  TransientOptions opts;
  opts.t_stop = 300e-6;
  opts.dt_max = 0.5e-6;
  const auto res = run_transient(ckt, opts);
  // Held low early, released high once the rail qualifies.
  EXPECT_LT(res.value_at("v(" + por.reset_n_name + ")", 40e-6), 0.4);
  EXPECT_GT(res.value_at("v(" + por.reset_n_name + ")", 280e-6), 1.4);
}

TEST(Por, SpecValidation) {
  pm::PorSpec bad;
  bad.assert_threshold = bad.release_threshold + 0.1;
  EXPECT_THROW(pm::PorModel{bad}, std::invalid_argument);
  Circuit ckt;
  EXPECT_THROW(pm::build_por(ckt, "p", ckt.node("r"), bad), std::invalid_argument);
}

// ----------------------------------------------------- tolerance Monte Carlo

TEST(Tolerance, NominalYieldIsHigh) {
  core::ToleranceSpec spec;
  spec.runs = 6;  // keep the unit test quick; the bench runs 20
  const auto result = core::run_tolerance_analysis(spec);
  EXPECT_EQ(result.runs, 6);
  EXPECT_EQ(static_cast<int>(result.details.size()), 6);
  // Nominal tolerances: the design should pass most draws.
  EXPECT_GE(result.pass_regulation, 5);
  EXPECT_GE(result.pass_downlink, 5);
  EXPECT_GT(result.vo_min_worst, 2.0);
}

TEST(Tolerance, WideSpreadsHurtYield) {
  core::ToleranceSpec tight;
  tight.runs = 5;
  core::ToleranceSpec wide = tight;
  wide.drive_tol = 0.30;       // gross placement error
  wide.threshold_tol = 0.30;
  const auto a = core::run_tolerance_analysis(tight);
  const auto b = core::run_tolerance_analysis(wide);
  EXPECT_LE(b.pass_all, a.pass_all);
}

TEST(Tolerance, DeterministicForSeed) {
  core::ToleranceSpec spec;
  spec.runs = 3;
  const auto a = core::run_tolerance_analysis(spec);
  const auto b = core::run_tolerance_analysis(spec);
  EXPECT_EQ(a.pass_all, b.pass_all);
  EXPECT_DOUBLE_EQ(a.vo_min_worst, b.vo_min_worst);
}

TEST(Tolerance, RejectsBadSpec) {
  core::ToleranceSpec spec;
  spec.runs = 0;
  EXPECT_THROW(core::run_tolerance_analysis(spec), std::invalid_argument);
}

}  // namespace
