// The linear transient path (DESIGN.md §5): a circuit whose devices all
// report nonlinear() == false is solved once per point, undamped, and its
// transient re-factors the matrix only when the step size changes. It
// must give the same bits as the full Newton path wherever that path
// was right, and the exact solution where Newton's damping was not.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/spice/circuit.hpp"
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
// pulse whose edges stay well below NewtonOptions::max_update.
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
      for (const bool adaptive : {false, true}) {
        for (const bool start_from_dc : {false, true}) {
          const std::string label =
              c.name + (integrator == Integrator::kTrapezoidal ? " trap" : " be") +
              (adaptive ? " adaptive" : " fixed") + (start_from_dc ? " dc" : " uic");
          TransientOptions opts;
          opts.t_stop = c.t_stop;
          opts.dt_max = c.dt_max;
          opts.integrator = integrator;
          opts.adaptive = adaptive;
          opts.start_from_dc = start_from_dc;

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
  }
}

TEST(LinearFastPath, SourceEdgeAboveMaxUpdateIsSolvedExactly) {
  // A 20 V edge in 1 ns is four times NewtonOptions::max_update. Run
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

}  // namespace
