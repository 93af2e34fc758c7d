#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/pm/rectifier.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"

namespace {

using namespace ironic::pm;
using namespace ironic::spice;

RectifierOptions fast_options() {
  RectifierOptions opt;
  opt.storage_capacitance = 10e-9;  // small Co keeps unit tests quick
  opt.diode_is = 1e-16;             // ~0.75 V drop -> 4-diode clamp near 3 V
  return opt;
}

struct RectifierSim {
  Circuit ckt;
  RectifierHandles rect;
};

TransientResult run_rectifier(Circuit& ckt, double t_stop, double dt = 5e-9) {
  TransientOptions opts;
  opts.t_stop = t_stop;
  opts.dt_max = dt;
  opts.record_every = 4;
  return run_transient(ckt, opts);
}

TEST(Rectifier, ChargesTowardInputPeakMinusDrop) {
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(3.5, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 50.0);
  build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), fast_options());
  const auto res = run_rectifier(ckt, 60e-6);

  const double vo = res.mean_between("v(r.vo)", 50e-6, 60e-6);
  EXPECT_GT(vo, 2.2);
  EXPECT_LT(vo, 3.2);
  // Monotone charge-up.
  EXPECT_GT(vo, res.value_at("v(r.vo)", 5e-6));
}

TEST(Rectifier, ClampLimitsOutputNearThreeVolts) {
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(6.0, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 50.0);
  build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), fast_options());
  const auto res = run_rectifier(ckt, 60e-6);
  // Overdriven input, yet Vo <= ~3 V thanks to the clamp chain.
  EXPECT_LT(res.max_between("v(r.vo)", 0.0, 60e-6), 3.3);
  EXPECT_GT(res.mean_between("v(r.vo)", 50e-6, 60e-6), 2.5);
}

TEST(Rectifier, AblationWithoutClampOvervolts) {
  auto opt = fast_options();
  opt.clamps_enabled = false;
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(6.0, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 50.0);
  build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), opt);
  const auto res = run_rectifier(ckt, 60e-6);
  // Without the clamps the output runs away past the 3 V safe ceiling.
  EXPECT_GT(res.max_between("v(r.vo)", 0.0, 60e-6), 4.0);
}

TEST(Rectifier, M1ShortSuppressesInput) {
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(3.5, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 50.0);
  // Vup rises at 30 us: input shorted afterwards.
  build_rectifier(ckt, "r", vi,
                  Waveform::pulse(0.0, 1.8, 30e-6, 0.1e-6, 0.1e-6, 100e-6, 0.0),
                  Waveform::dc(1.8), fast_options());
  const auto res = run_rectifier(ckt, 60e-6);
  const double open_peak = res.peak_abs_between("v(vi)", 20e-6, 29e-6);
  const double short_peak = res.peak_abs_between("v(vi)", 40e-6, 60e-6);
  EXPECT_LT(short_peak, open_peak * 0.25);
}

TEST(Rectifier, M2OpenPreventsClampLeakDuringUplink) {
  // Charge Co, remove the drive, short the input (uplink '0'): with M2
  // closed the clamp chain leaks Co down; with M2 open it holds.
  const auto run_variant = [](bool m2_closed) {
    Circuit ckt;
    const auto src = ckt.node("src");
    const auto vi = ckt.node("vi");
    // Carrier present for 40 us, then off.
    ironic::util::PiecewiseLinear env({0.0, 40e-6, 41e-6}, {3.5, 3.5, 0.0});
    ckt.add<VoltageSource>("Vs", src, kGround,
                           Waveform::modulated_sine(5e6, env));
    ckt.add<Resistor>("Rs", src, vi, 50.0);
    build_rectifier(ckt, "r", vi,
                    Waveform::pulse(0.0, 1.8, 45e-6, 0.1e-6, 0.1e-6, 300e-6, 0.0),
                    m2_closed ? Waveform::dc(1.8)
                              : Waveform::pulse(1.8, 0.0, 45e-6, 0.1e-6, 0.1e-6,
                                                300e-6, 0.0),
                    fast_options());
    const auto res = run_rectifier(ckt, 160e-6);
    return res.value_at("v(r.vo)", 45e-6) - res.value_at("v(r.vo)", 160e-6);
  };
  const double droop_closed = run_variant(true);
  const double droop_open = run_variant(false);
  EXPECT_GT(droop_closed, droop_open * 3.0);
  EXPECT_LT(droop_open, 0.1);
}

TEST(Rectifier, BulkBiasPreservesNegativeSwing) {
  // With M1's bulk hard-grounded, its body diode clamps Vi near -0.8 V;
  // the Ma/Mb steering well lets the input swing fully negative.
  const auto min_vi = [](bool bias) {
    auto opt = fast_options();
    opt.bulk_bias = bias;
    Circuit ckt;
    const auto src = ckt.node("src");
    const auto vi = ckt.node("vi");
    ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(3.0, 5e6));
    ckt.add<Resistor>("Rs", src, vi, 50.0);
    build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), opt);
    TransientOptions opts;
    opts.t_stop = 10e-6;
    opts.dt_max = 2e-9;
    opts.record_signals = {"v(vi)"};
    const auto res = run_transient(ckt, opts);
    return res.min_between("v(vi)", 5e-6, 10e-6);
  };
  const double with_bias = min_vi(true);
  const double grounded = min_vi(false);
  // Both variants are bounded by M1's grounded-gate channel turning on
  // (source = input below -Vth), but the hard-grounded bulk adds the
  // body diode in parallel and clamps visibly earlier.
  EXPECT_LT(with_bias, grounded - 0.05);
  EXPECT_GT(grounded, -1.0);
  EXPECT_LT(with_bias, -0.85);
}

TEST(Rectifier, InputImpedanceNearPaperValue) {
  // Paper Sec. IV-C: 'the average input impedance of the rectifier is
  // about 150 Ohm'. We assert the same order of magnitude.
  const auto z = extract_average_input_impedance(3.5, 150.0, 1.8 / 350e-6,
                                                 fast_options());
  EXPECT_GT(z.resistance, 50.0);
  EXPECT_LT(z.resistance, 600.0);
  EXPECT_GT(z.average_power, 0.0);
  EXPECT_GT(z.output_voltage, 1.5);
}

TEST(Rectifier, HeavierLoadLowersInputImpedance) {
  const auto light = extract_average_input_impedance(3.5, 150.0, 1.8 / 350e-6,
                                                     fast_options());
  const auto heavy = extract_average_input_impedance(3.5, 150.0, 1.8 / 1.3e-3,
                                                     fast_options());
  EXPECT_LT(heavy.resistance, light.resistance);
  EXPECT_GT(heavy.average_power, light.average_power);
}

TEST(Rectifier, BenchCircuitEngineCountersArePinned) {
  // The BM_TransientRectifier circuit (bench/bench_engine_perf.cpp), run
  // once: its exact engine and solver counters and the bits of the final
  // output voltage. A solver or device change that claims to move no bit
  // must leave every one of them alone.
  Circuit ckt;
  const auto src = ckt.node("src");
  const auto vi = ckt.node("vi");
  ckt.add<VoltageSource>("Vs", src, kGround, Waveform::sine(3.5, 5e6));
  ckt.add<Resistor>("Rs", src, vi, 150.0);
  RectifierOptions opt;
  opt.storage_capacitance = 10e-9;
  build_rectifier(ckt, "r", vi, Waveform::dc(0.0), Waveform::dc(1.8), opt);
  TransientOptions opts;
  opts.t_stop = 4e-6;
  opts.dt_max = 5e-9;
  opts.record_every = 16;
  TransientStats stats;
  const auto res = run_transient(ckt, opts, &stats);

  EXPECT_EQ(stats.accepted_steps, 801u);
  EXPECT_EQ(stats.rejected_steps, 0u);
  EXPECT_EQ(stats.lte_rejections, 0u);
  EXPECT_EQ(stats.breakpoint_hits, 0u);
  EXPECT_EQ(stats.newton_iterations, 2760u);
  EXPECT_EQ(stats.factorizations, 2760u);
  EXPECT_EQ(stats.solves, 2760u);
  EXPECT_EQ(stats.max_newton_iterations, 12u);

  const auto& solver = ckt.acquire_solver().stats();
  EXPECT_EQ(solver.factorizations, 2760u);
  EXPECT_EQ(solver.refactorizations, 2759u);
  EXPECT_EQ(solver.solves, 2760u);
  EXPECT_EQ(solver.pattern_builds, 1u);
  EXPECT_EQ(solver.pattern_reuses, 2759u);
  EXPECT_EQ(solver.nnz, 32u);
  EXPECT_EQ(solver.factor_nnz, 39u);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.voltage("r.vo").back()), 0x3ff3b57176ad2e81u);
}

TEST(Rectifier, RejectsBadOptions) {
  Circuit ckt;
  RectifierOptions opt;
  opt.storage_capacitance = 0.0;
  EXPECT_THROW(build_rectifier(ckt, "r", ckt.node("vi"), Waveform::dc(0.0),
                               Waveform::dc(1.8), opt),
               std::invalid_argument);
  EXPECT_THROW(extract_average_input_impedance(-1.0, 150.0, 5e3), std::invalid_argument);
}

}  // namespace
