// The linear transient path (DESIGN.md §5): a circuit whose devices all
// report nonlinear() == false is solved once per point, undamped, and its
// transient re-factors the matrix only when the step size changes. It
// must give the same bits as the full Newton path wherever that path
// was right, and the exact solution where Newton's damping was not.
// Also the per-step hook contract (Device::step_hooks): the engine skips
// the hooks a device does not declare, so those must be no-ops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/spice/circuit.hpp"
#include "src/spice/devices_nonlinear.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/netlist_parser.hpp"
#include "src/spice/trace.hpp"

namespace {

using namespace ironic::spice;

const std::filesystem::path kSourceDir = IRONIC_SOURCE_DIR;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Stamps nothing but reports nonlinear(), so a circuit holding it takes
// the full Newton path: a fresh assembly every iteration, and two
// iterations per step when no update is damped.
class ForceNewton final : public Device {
 public:
  using Device::Device;
  void stamp(StampContext&) override {}
  bool nonlinear() const override { return true; }
};

// One of every linear device kind, driven by a voltage and a current
// pulse whose edges stay well below the Newton loop's 5 V update clamp.
void build_every_linear_kind(Circuit& ckt) {
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto s = ckt.node("s");
  const auto e = ckt.node("e");
  const auto g = ckt.node("g");
  ckt.add<VoltageSource>("V1", in, kGround,
                         Waveform::pulse(0.5, 2.0, 0.2e-6, 50e-9, 50e-9, 1e-6, 3e-6));
  ckt.add<CurrentSource>("I1", kGround, a,
                         Waveform::pulse(0.0, 1e-3, 0.7e-6, 20e-9, 20e-9, 0.5e-6, 0.0));
  ckt.add<Resistor>("R1", in, a, 100.0);
  ckt.add<Capacitor>("C1", a, kGround, 1e-9);
  ckt.add<Inductor>("L1", a, b, 10e-6, 1.0);
  ckt.add<CoupledInductors>("K1", b, kGround, s, kGround, 20e-6, 5e-6, 0.8, 10.0, 1.0);
  ckt.add<Resistor>("R2", s, kGround, 100.0);
  ckt.add<Vcvs>("E1", e, kGround, a, kGround, 0.5);
  ckt.add<Resistor>("R3", e, kGround, 1e3);
  ckt.add<Vccs>("G1", kGround, g, s, kGround, 1e-3);
  ckt.add<Resistor>("R4", g, kGround, 1e3);
  ckt.add<Capacitor>("C2", g, kGround, 100e-12);
}

void expect_same_bits(const TransientResult& fast, const TransientResult& forced,
                      const std::string& label) {
  ASSERT_EQ(fast.names(), forced.names()) << label;
  ASSERT_EQ(fast.num_points(), forced.num_points()) << label;
  EXPECT_EQ(std::memcmp(fast.time().data(), forced.time().data(),
                        fast.num_points() * sizeof(double)),
            0)
      << label << ": time grids differ";
  for (const auto& name : fast.names()) {
    const auto f = fast.signal(name);
    const auto n = forced.signal(name);
    EXPECT_EQ(std::memcmp(f.data(), n.data(), f.size() * sizeof(double)), 0)
        << label << ": " << name << " differs";
  }
}

TEST(LinearFastPath, MatchesForcedNewtonBitForBit) {
  struct Case {
    std::string name;
    std::function<void(Circuit&)> build;
    double t_stop;
    double dt_max;
    bool pulsed;  // driven by a pulse, so steps snap to its breakpoints
  };
  const std::vector<Case> cases = {
      {"tissue_ladder",
       [](Circuit& ckt) {
         parse_netlist(ckt, read_file(kSourceDir / "examples" / "netlists" /
                                      "tissue_ladder.cir"));
       },
       2e-6, 5e-9, true},
      {"rc_lowpass",
       [](Circuit& ckt) {
         parse_netlist(ckt, read_file(kSourceDir / "examples" / "netlists" /
                                      "rc_lowpass.cir"));
       },
       0.3e-6, 0.25e-9, false},
      {"every_linear_kind", build_every_linear_kind, 2e-6, 2e-9, true},
  };

  for (const auto& c : cases) {
    for (const Integrator integrator : {Integrator::kTrapezoidal, Integrator::kBackwardEuler}) {
      const std::string label =
          c.name + (integrator == Integrator::kTrapezoidal ? " trap" : " be");
      TransientOptions opts;
      opts.t_stop = c.t_stop;
      opts.dt_max = c.dt_max;
      opts.integrator = integrator;

      Circuit fast_ckt;
      c.build(fast_ckt);
      TransientStats fast_stats;
      const auto fast = run_transient(fast_ckt, opts, &fast_stats);
      ASSERT_TRUE(fast_ckt.linear()) << label;

      Circuit forced_ckt;
      c.build(forced_ckt);
      forced_ckt.add<ForceNewton>("XNEWTON");
      TransientStats forced_stats;
      const auto forced = run_transient(forced_ckt, opts, &forced_stats);
      ASSERT_FALSE(forced_ckt.linear()) << label;

      expect_same_bits(fast, forced, label);
      const std::size_t attempts = fast_stats.accepted_steps + fast_stats.rejected_steps;
      EXPECT_EQ(forced_stats.accepted_steps, fast_stats.accepted_steps) << label;
      EXPECT_EQ(forced_stats.rejected_steps, fast_stats.rejected_steps) << label;
      // Two iterations on every attempt: the forced run was never damped.
      EXPECT_EQ(forced_stats.newton_iterations, 2 * attempts) << label;
      EXPECT_EQ(fast_stats.newton_iterations, attempts) << label;
      EXPECT_EQ(fast_stats.solves, attempts) << label;
      EXPECT_LT(fast_stats.factorizations, fast_stats.accepted_steps) << label;
      if (c.pulsed) {
        EXPECT_GT(fast_stats.breakpoint_hits, 0u) << label;
      }
    }
  }
}

TEST(LinearFastPath, SourceEdgeAboveMaxUpdateIsSolvedExactly) {
  // A 20 V edge in 1 ns is four times the Newton update clamp. Run
  // through the Newton loop, whose damping clamps every update to 5 V, a
  // linear circuit accepted the damped iterate: v(in) read 10 V at the
  // end of the edge and v(out) 0.736 V one 50 ns step later (exact:
  // 0.985 V).
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<VoltageSource>("V1", in, kGround,
                         Waveform::pulse(0.0, 20.0, 1e-6, 1e-9, 1e-9, 10e-6, 0.0));
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, kGround, 1e-9);
  TransientOptions opts;
  opts.t_stop = 2e-6;
  opts.dt_max = 50e-9;
  const auto result = run_transient(ckt, opts);

  const auto& t = result.time();
  const auto v_in = result.voltage("in");
  const auto v_out = result.voltage("out");
  std::size_t edge = 0;
  while (edge < t.size() && t[edge] < 1.001e-6 * (1.0 - 1e-9)) ++edge;
  ASSERT_LT(edge + 1, t.size());
  ASSERT_NEAR(t[edge], 1.001e-6, 1e-15);
  EXPECT_EQ(v_in[edge], 20.0);

  // From the end of the edge the source is a constant 20 V, so v(out)
  // charges along 20 - (20 - v0) exp(-(t - t0) / RC).
  constexpr double kTau = 1e3 * 1e-9;
  for (std::size_t k = edge + 1; k < t.size(); ++k) {
    const double exact = 20.0 - (20.0 - v_out[edge]) * std::exp(-(t[k] - t[edge]) / kTau);
    EXPECT_NEAR(v_out[k], exact, 1e-3 * exact) << "t=" << t[k];
  }
  EXPECT_NEAR(v_out[edge + 1], 0.985, 0.001);
}

// --- per-step hooks (Device::step_hooks) ------------------------------------

// One of every shipped device kind: the linear ones plus a diode, a
// MOSFET, a switch and an op-amp follower.
void build_every_device_kind(Circuit& ckt) {
  build_every_linear_kind(ckt);
  const auto in = ckt.find_node("in");
  const auto a = ckt.find_node("a");
  const auto d = ckt.node("d");
  const auto drain = ckt.node("drain");
  const auto sw = ckt.node("sw");
  const auto out = ckt.node("out");
  ckt.add<Diode>("D1", a, d);
  ckt.add<Resistor>("RD", d, kGround, 1e3);
  ckt.add<Mosfet>("M1", drain, a, kGround, kGround, MosParams{});
  ckt.add<Resistor>("RM", in, drain, 1e3);
  ckt.add<SmoothSwitch>("S1", a, sw, in, kGround);
  ckt.add<Resistor>("RW", sw, kGround, 1e3);
  ckt.add<OpAmp>("U1", out, a, out);
  ckt.add<Resistor>("RU", out, kGround, 1e4);
}

constexpr StepHooks kNoHooks{.start_step = false, .accept_step = false, .rhs_stamp = false};

TEST(StepHooks, ShippedDevicesDeclareTheirHooksAndFinalizeListsThemInOrder) {
  Circuit ckt;
  build_every_device_kind(ckt);
  ckt.add<ForceNewton>("XDEFAULT");  // no declaration: every hook
  ckt.finalize();

  const StepHooks history{.start_step = false, .accept_step = true, .rhs_stamp = true};
  const StepHooks stimulus{.start_step = false, .accept_step = false, .rhs_stamp = true};
  const StepHooks limiting{.start_step = true, .accept_step = false, .rhs_stamp = true};
  const std::vector<std::pair<std::string, StepHooks>> declared = {
      {"R1", kNoHooks},   {"C1", history},    {"L1", history},       {"K1", history},
      {"V1", stimulus},   {"I1", stimulus},   {"E1", kNoHooks},      {"G1", kNoHooks},
      {"D1", limiting},   {"M1", limiting},   {"S1", limiting},      {"U1", limiting},
      {"XDEFAULT", StepHooks{}},
  };
  for (const auto& [name, hooks] : declared) {
    EXPECT_EQ(ckt.find_device(name)->step_hooks(), hooks) << name;
  }

  std::vector<Device*> start, accept, rhs;
  for (const auto& dev : ckt.devices()) {
    const StepHooks hooks = dev->step_hooks();
    if (hooks.start_step) start.push_back(dev.get());
    if (hooks.accept_step) accept.push_back(dev.get());
    if (hooks.rhs_stamp) rhs.push_back(dev.get());
  }
  EXPECT_EQ(ckt.start_step_devices(), start);
  EXPECT_EQ(ckt.accept_step_devices(), accept);
  EXPECT_EQ(ckt.rhs_stamp_devices(), rhs);
  EXPECT_EQ(start.size(), 5u);
  EXPECT_EQ(accept.size(), 5u);
  EXPECT_EQ(rhs.size(), 11u);
}

// A device's stamp alone: its rhs, whether it limited, and its matrix
// entries held in `solver` (plus a diagonal that keeps the matrix
// nonsingular), factored so solves through `solver` read the matrix.
struct DeviceStamp {
  std::vector<double> rhs;
  bool limited = false;
};

DeviceStamp stamp_alone(Device& dev, ironic::linalg::SparseSolver<double>& solver,
                        std::span<const double> x, bool matrix,
                        std::vector<double> rhs) {
  if (matrix) solver.begin_assembly();
  StampContext ctx{solver, rhs, x, /*time=*/1e-6, /*dt=*/1e-9, Integrator::kTrapezoidal,
                   /*dc=*/false, /*source_scale=*/1.0, false, matrix};
  dev.stamp(ctx);
  if (matrix) {
    for (std::size_t i = 0; i < solver.size(); ++i) {
      solver.add(static_cast<int>(i), static_cast<int>(i), 3.0);
    }
    solver.factor();
  }
  return {std::move(rhs), ctx.limited};
}

TEST(StepHooks, UndeclaredHooksAreNoOps) {
  // Two identical circuits; on the second, every hook a device does not
  // declare is called anyway. Calling it must be indistinguishable from
  // skipping it, which is what the engine does.
  Circuit skipped;
  Circuit called;
  build_every_device_kind(skipped);
  build_every_device_kind(called);
  skipped.finalize();
  called.finalize();
  const std::size_t n = skipped.num_unknowns();
  // From the zero iterate to x1 every nonlinear device limits (the diode
  // forward past vcrit, the MOSFET's vgs by more than 1 V, the switch's
  // and the op-amp's control voltage by more than their step bounds), so
  // a limiting reset that was skipped would change the next stamp.
  const std::vector<double> x0(n, 0.0);
  std::vector<double> x1(n);
  for (std::size_t i = 0; i < n; ++i) x1[i] = 0.25 + 0.01 * static_cast<double>(i);
  const auto at = [&](const char* node) -> double& {
    return x1[static_cast<std::size_t>(skipped.find_node(node))];
  };
  at("a") = 2.0;
  at("d") = 1.0;
  at("in") = -1.5;
  at("out") = -0.5;
  at("drain") = 1.0;
  std::vector<double> filled(n);
  for (std::size_t i = 0; i < n; ++i) filled[i] = 1.0 + 0.25 * static_cast<double>(i);

  ASSERT_EQ(skipped.devices().size(), called.devices().size());
  for (std::size_t k = 0; k < skipped.devices().size(); ++k) {
    Device& quiet = *skipped.devices()[k];
    Device& busy = *called.devices()[k];
    const std::string& name = quiet.name();
    const StepHooks hooks = busy.step_hooks();
    ironic::linalg::SparseSolver<double> solver(n);

    // Same history and limiting state on both: an accepted point x0 and
    // one stamp there.
    for (Device* dev : {&quiet, &busy}) {
      dev->initialize(x0);
      dev->accept_step(x0, 1e-6, 1e-9, Integrator::kTrapezoidal);
      stamp_alone(*dev, solver, x0, /*matrix=*/true, std::vector<double>(n, 0.0));
    }

    if (!hooks.start_step) busy.start_step(1e-6, 1e-9);
    if (!hooks.accept_step) {
      std::vector<double> before, after;
      busy.save_state(before);
      busy.accept_step(x1, 1e-6, 1e-9, Integrator::kTrapezoidal);
      busy.save_state(after);
      EXPECT_EQ(before, after) << name << ": accept_step changed the saved state";
    }

    // The next stamp: rhs, limiting and matrix entries all unchanged. The
    // matrix is compared through its inverse: the solves of the n unit
    // vectors after each stamp must agree bit for bit.
    const auto inverse = [&] {
      std::vector<double> columns;
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> e(n, 0.0);
        e[j] = 1.0;
        solver.solve_in_place(e);
        columns.insert(columns.end(), e.begin(), e.end());
      }
      return columns;
    };
    const DeviceStamp want = stamp_alone(quiet, solver, x1, true, std::vector<double>(n, 0.0));
    const std::vector<double> want_inverse = inverse();
    const DeviceStamp got = stamp_alone(busy, solver, x1, true, std::vector<double>(n, 0.0));
    EXPECT_EQ(std::memcmp(got.rhs.data(), want.rhs.data(), n * sizeof(double)), 0)
        << name << ": next stamp's rhs moved";
    EXPECT_EQ(got.limited, want.limited) << name;
    EXPECT_EQ(want.limited, quiet.nonlinear()) << name << ": x1 must exercise limiting";
    const std::vector<double> got_inverse = inverse();
    EXPECT_EQ(std::memcmp(got_inverse.data(), want_inverse.data(), n * n * sizeof(double)), 0)
        << name << ": next stamp's matrix moved";

    if (!hooks.rhs_stamp) {
      const DeviceStamp restamp = stamp_alone(busy, solver, x1, /*matrix=*/false, filled);
      EXPECT_EQ(std::memcmp(restamp.rhs.data(), filled.data(), n * sizeof(double)), 0)
          << name << ": a matrix-only stamp wrote rhs";
      EXPECT_FALSE(restamp.limited) << name;
    }
  }
}

// A linear device that declares no per-step hook and counts the calls it
// gets anyway.
class CountingMatrixOnly final : public Device {
 public:
  using Device::Device;
  void stamp(StampContext&) override { ++stamps; }
  void start_step(double, double) override { ++start_steps; }
  void accept_step(std::span<const double>, double, double, Integrator) override {
    ++accept_steps;
  }
  StepHooks step_hooks() const override { return kNoHooks; }
  std::uint64_t stamps = 0;
  std::uint64_t start_steps = 0;
  std::uint64_t accept_steps = 0;
};

TEST(StepHooks, MatrixOnlyDeviceIsStampedOncePerAssembly) {
  Circuit ckt;
  build_every_linear_kind(ckt);
  auto& counter = ckt.add<CountingMatrixOnly>("XCOUNT");
  TransientOptions opts;
  opts.t_stop = 2e-6;
  opts.dt_max = 2e-9;
  TransientStats stats;
  run_transient(ckt, opts, &stats);
  ASSERT_TRUE(ckt.linear());

  // Every assembly ends in one factor() call, counted as a
  // factorization.
  const auto& solver = ckt.acquire_solver().stats();
  EXPECT_EQ(counter.stamps, solver.factorizations);
  EXPECT_LT(counter.stamps, stats.accepted_steps / 10);
  EXPECT_EQ(counter.start_steps, 0u);
  EXPECT_EQ(counter.accept_steps, 0u);
}

}  // namespace
