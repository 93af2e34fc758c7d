#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/linalg/sparse.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/waveform.hpp"

namespace {

using namespace ironic::spice;

double node_voltage(const Circuit& ckt, const DcResult& dc, Circuit& mut,
                    const std::string& name) {
  (void)ckt;
  return dc.x[static_cast<std::size_t>(mut.find_node(name))];
}

TEST(Dc, VoltageDivider) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(10.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Resistor>("R2", out, kGround, 3e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(node_voltage(ckt, dc, ckt, "out"), 7.5, 1e-6);
  EXPECT_EQ(dc.strategy, "newton");
}

TEST(Dc, VoltageSourceBranchCurrentSignConvention) {
  Circuit ckt;
  const auto in = ckt.node("in");
  auto& vs = ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, kGround, 100.0);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // Source drives 10 mA into the circuit; branch current (a -> b through
  // the source) is therefore -10 mA.
  EXPECT_NEAR(dc.x[static_cast<std::size_t>(vs.branch_index())], -0.01, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto n = ckt.node("n");
  // 1 mA flowing from ground to n through the source raises v(n).
  ckt.add<CurrentSource>("I1", kGround, n, Waveform::dc(1e-3));
  ckt.add<Resistor>("R1", n, kGround, 2e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(node_voltage(ckt, dc, ckt, "n"), 2.0, 1e-6);
}

TEST(Dc, VcvsGain) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", a, kGround, Waveform::dc(0.5));
  ckt.add<Vcvs>("E1", out, kGround, a, kGround, 4.0);
  ckt.add<Resistor>("RL", out, kGround, 1e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(node_voltage(ckt, dc, ckt, "out"), 2.0, 1e-9);
}

TEST(Dc, VccsTransconductance) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  // 2 mS: pulls 2 mA from out to ground per volt of control.
  ckt.add<Vccs>("G1", out, kGround, a, kGround, 2e-3);
  ckt.add<Resistor>("R1", out, kGround, 1e3);
  ckt.add<VoltageSource>("V2", ckt.node("s"), kGround, Waveform::dc(0.0));
  ckt.add<Resistor>("R2", ckt.node("s"), out, 1e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // Thevenin: node out sees 2 mA sink with 500 ohm to ground -> -1 V.
  EXPECT_NEAR(node_voltage(ckt, dc, ckt, "out"), -1.0, 1e-6);
}

TEST(Dc, InductorIsDcShort) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(5.0));
  ckt.add<Inductor>("L1", in, mid, 1e-3);
  ckt.add<Resistor>("R1", mid, kGround, 1e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(node_voltage(ckt, dc, ckt, "mid"), 5.0, 1e-4);
}

TEST(Dc, DiodeForwardDrop) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto d = ckt.node("d");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, d, 1e3);
  auto& diode = ckt.add<Diode>("D1", d, kGround);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  const double vd = node_voltage(ckt, dc, ckt, "d");
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  // KCL: resistor current equals diode current.
  const double ir = (1.0 - vd) / 1e3;
  EXPECT_NEAR(ir, diode.current(vd), 1e-7);
}

TEST(Dc, DiodeReverseBlocks) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto d = ckt.node("d");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(-5.0));
  ckt.add<Resistor>("R1", in, d, 1e3);
  ckt.add<Diode>("D1", d, kGround);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // Nearly the full -5 V appears across the diode.
  EXPECT_LT(node_voltage(ckt, dc, ckt, "d"), -4.99);
}

TEST(Dc, DiodeStackClampsAtMultipleDrops) {
  // Two series diodes conduct at roughly double the single-diode drop.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto top = ckt.node("top");
  const auto mid = ckt.node("mid");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(3.0));
  ckt.add<Resistor>("R1", in, top, 1e3);
  ckt.add<Diode>("D1", top, mid);
  ckt.add<Diode>("D2", mid, kGround);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  const double v = node_voltage(ckt, dc, ckt, "top");
  EXPECT_GT(v, 1.0);
  EXPECT_LT(v, 1.6);
}

TEST(Dc, NmosSaturationCurrent) {
  MosParams p;
  p.vt0 = 0.5;
  p.kp = 170e-6;
  p.w = 1.8e-6;
  p.l = 0.18e-6;
  p.lambda = 0.0;
  p.gamma = 0.0;
  p.bulk_diodes = false;
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto g = ckt.node("g");
  ckt.add<VoltageSource>("Vdd", vdd, kGround, Waveform::dc(1.8));
  ckt.add<VoltageSource>("Vg", g, kGround, Waveform::dc(1.0));
  auto& m = ckt.add<Mosfet>("M1", vdd, g, kGround, kGround, p);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // Analytic check via the exposed model equation.
  const double beta = p.beta();
  const double expected = 0.5 * beta * 0.5 * 0.5;
  EXPECT_NEAR(m.drain_current(1.8, 1.0, 0.0, 0.0), expected, expected * 1e-9);
}

TEST(Dc, NmosTriodeMatchesModel) {
  MosParams p;
  p.vt0 = 0.5;
  p.lambda = 0.0;
  p.gamma = 0.0;
  p.bulk_diodes = false;
  Circuit ckt;
  const auto d = ckt.node("d");
  const auto g = ckt.node("g");
  ckt.add<VoltageSource>("Vg", g, kGround, Waveform::dc(1.8));
  ckt.add<CurrentSource>("I1", kGround, d, Waveform::dc(50e-6));
  auto& m = ckt.add<Mosfet>("M1", d, g, kGround, kGround, p);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  const double vd = dc.x[static_cast<std::size_t>(ckt.find_node("d"))];
  // The MOSFET must sink exactly the injected 50 uA.
  EXPECT_NEAR(m.drain_current(vd, 1.8, 0.0, 0.0), 50e-6, 1e-8);
  EXPECT_GT(vd, 0.0);
  EXPECT_LT(vd, 0.5);  // deep triode for this drive
}

TEST(Dc, PmosMirrorsNmos) {
  MosParams p;
  p.type = MosType::kPmos;
  p.vt0 = 0.5;
  p.lambda = 0.0;
  p.gamma = 0.0;
  p.bulk_diodes = false;
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto d = ckt.node("d");
  ckt.add<VoltageSource>("Vdd", vdd, kGround, Waveform::dc(1.8));
  // Gate at 0.8 V: |vgs| = 1.0 V, overdrive 0.5 V.
  ckt.add<VoltageSource>("Vg", ckt.node("g"), kGround, Waveform::dc(0.8));
  auto& m = ckt.add<Mosfet>("M1", d, ckt.find_node("g"), vdd, vdd, p);
  ckt.add<Resistor>("RL", d, kGround, 10e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  const double vd = dc.x[static_cast<std::size_t>(ckt.find_node("d"))];
  // The PMOS sources current into RL; KCL ties the load current to the
  // model equation at the converged drain voltage.
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 1.8);
  EXPECT_NEAR(vd / 10e3, -m.drain_current(vd, 0.8, 1.8, 1.8), 1e-7);
}

TEST(Dc, SmoothSwitchOnOff) {
  SwitchParams sp;
  sp.r_on = 10.0;
  sp.r_off = 1e9;
  sp.v_on = 1.0;
  sp.v_off = 0.2;
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto c = ckt.node("c");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(1.0));
  auto& vc = ckt.add<VoltageSource>("Vc", c, kGround, Waveform::dc(1.8));
  ckt.add<SmoothSwitch>("S1", in, out, c, kGround, sp);
  ckt.add<Resistor>("RL", out, kGround, 1e3);
  {
    const auto dc = solve_dc(ckt);
    ASSERT_TRUE(dc.converged);
    // On: divider 10 / 1010.
    EXPECT_NEAR(dc.x[static_cast<std::size_t>(out)], 1e3 / 1010.0, 1e-4);
  }
  vc.set_waveform(Waveform::dc(0.0));
  {
    const auto dc = solve_dc(ckt);
    ASSERT_TRUE(dc.converged);
    EXPECT_LT(dc.x[static_cast<std::size_t>(out)], 1e-3);
  }
}

// A source evaluates its waveform once per stamped time, so a
// set_waveform between two stamps at one time point must drop the value
// the first stamp computed.
TEST(Sources, SetWaveformBetweenStampsAtOneTimeTakesEffect) {
  Circuit ckt;
  const auto a = ckt.node("a");
  auto& vs = ckt.add<VoltageSource>("V1", a, kGround, Waveform::sine(1.0, 1e6));
  auto& is = ckt.add<CurrentSource>("I1", a, kGround, Waveform::dc(2.0));
  ckt.add<Resistor>("R1", a, kGround, 1e3);
  ckt.finalize();
  const std::size_t n = ckt.num_unknowns();
  ironic::linalg::SparseSolver<double> solver(n);
  std::vector<double> rhs(n, 0.0);
  const std::vector<double> x(n, 0.0);
  const auto stamp_rhs = [&] {
    std::fill(rhs.begin(), rhs.end(), 0.0);
    // A quarter period into the 1 MHz sine; matrix false stamps rhs only.
    StampContext ctx{solver, rhs, x, 0.25e-6, 1e-8, Integrator::kTrapezoidal,
                     false, 1.0, false, false};
    vs.stamp(ctx);
    is.stamp(ctx);
  };
  const auto branch = static_cast<std::size_t>(vs.branch_index());
  const auto node = static_cast<std::size_t>(a);

  stamp_rhs();
  EXPECT_DOUBLE_EQ(rhs[branch], 1.0);
  EXPECT_EQ(rhs[node], -2.0);
  stamp_rhs();  // the same time again: the same values
  EXPECT_DOUBLE_EQ(rhs[branch], 1.0);
  EXPECT_EQ(rhs[node], -2.0);

  vs.set_waveform(Waveform::dc(-0.5));
  is.set_waveform(Waveform::dc(3.0));
  stamp_rhs();
  EXPECT_EQ(rhs[branch], -0.5);
  EXPECT_EQ(rhs[node], -3.0);
}

TEST(Dc, OpAmpFollower) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(0.9));
  OpAmpParams op;
  op.v_out_min = 0.0;
  op.v_out_max = 1.8;
  ckt.add<OpAmp>("U1", out, in, out, op);
  ckt.add<Resistor>("RL", out, kGround, 10e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.x[static_cast<std::size_t>(out)], 0.9, 1e-3);
}

TEST(Dc, OpAmpSaturatesAtRails) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround, Waveform::dc(0.5));
  OpAmpParams op;
  op.v_out_min = 0.0;
  op.v_out_max = 1.8;
  // Comparator configuration: inn grounded, large positive input.
  ckt.add<OpAmp>("U1", out, in, kGround, op);
  ckt.add<Resistor>("RL", out, kGround, 10e3);
  const auto dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.x[static_cast<std::size_t>(out)], 1.8, 1e-3);
}

TEST(Dc, DuplicateDeviceNameRejected) {
  Circuit ckt;
  ckt.add<Resistor>("R1", ckt.node("a"), kGround, 1.0);
  EXPECT_THROW(ckt.add<Resistor>("R1", ckt.node("b"), kGround, 1.0),
               std::invalid_argument);
}

TEST(Dc, InvalidComponentValuesRejected) {
  Circuit ckt;
  EXPECT_THROW(ckt.add<Resistor>("R", ckt.node("a"), kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(ckt.add<Capacitor>("C", ckt.node("a"), kGround, -1e-9),
               std::invalid_argument);
  EXPECT_THROW(ckt.add<Inductor>("L", ckt.node("a"), kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(ckt.add<CoupledInductors>("K", ckt.node("a"), kGround, ckt.node("b"),
                                         kGround, 1e-6, 1e-6, 1.5),
               std::invalid_argument);
}

// NaN passes a `v <= 0` test and an infinite resistance stamps a zero
// conductance (a silent open circuit): both are rejected where the value
// enters, by the constructors, Resistor::set_resistance and
// CoupledInductors::set_coupling.
TEST(Dc, NonFinitePassiveValuesRejected) {
  Circuit ckt;
  const auto a = ckt.node("a");
  Resistor& r = ckt.add<Resistor>("R", a, kGround, 1.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Resistor("RX", a, kGround, bad), std::invalid_argument) << bad;
    EXPECT_THROW(Capacitor("CX", a, kGround, bad), std::invalid_argument) << bad;
    EXPECT_THROW(Inductor("LX", a, kGround, bad), std::invalid_argument) << bad;
    EXPECT_THROW(Inductor("LX", a, kGround, 1e-6, bad), std::invalid_argument) << bad;
    EXPECT_THROW(r.set_resistance(bad), std::invalid_argument) << bad;
    EXPECT_EQ(r.resistance(), 1.0);
    EXPECT_THROW(CoupledInductors("KX", a, kGround, a, kGround, bad, 1e-6, 0.5),
                 std::invalid_argument) << bad;
    EXPECT_THROW(CoupledInductors("KX", a, kGround, a, kGround, 1e-6, bad, 0.5),
                 std::invalid_argument) << bad;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CoupledInductors("KX", a, kGround, a, kGround, 1e-6, 1e-6, nan),
               std::invalid_argument);
  CoupledInductors k("K", a, kGround, a, kGround, 1e-6, 1e-6, 0.5);
  EXPECT_THROW(k.set_coupling(nan), std::invalid_argument);
  EXPECT_EQ(k.coupling(), 0.5);
}

}  // namespace
