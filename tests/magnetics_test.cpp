#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "src/magnetics/coil.hpp"
#include "src/magnetics/coupling.hpp"
#include "src/magnetics/elliptic.hpp"
#include "src/magnetics/link.hpp"
#include "src/magnetics/tissue.hpp"
#include "src/util/constants.hpp"

namespace {

using namespace ironic::magnetics;
namespace constants = ironic::constants;

// ---------------------------------------------------------------- elliptic

TEST(Elliptic, KnownValues) {
  // K(0) = E(0) = pi/2.
  EXPECT_NEAR(elliptic_k(0.0), constants::kPi / 2.0, 1e-14);
  EXPECT_NEAR(elliptic_e(0.0), constants::kPi / 2.0, 1e-14);
  // E(1) = 1.
  EXPECT_NEAR(elliptic_e(1.0), 1.0, 1e-12);
  // Reference values (Abramowitz & Stegun): k = sin(45 deg).
  const double k45 = std::sin(constants::kPi / 4.0);
  EXPECT_NEAR(elliptic_k(k45), 1.85407467730137, 1e-10);
  EXPECT_NEAR(elliptic_e(k45), 1.35064388104818, 1e-10);
}

TEST(Elliptic, DomainChecks) {
  EXPECT_THROW(elliptic_k(1.0), std::invalid_argument);
  EXPECT_THROW(elliptic_k(-0.1), std::invalid_argument);
  EXPECT_THROW(elliptic_e(1.1), std::invalid_argument);
}

TEST(Elliptic, KDivergesTowardOne) {
  EXPECT_GT(elliptic_k(0.9999), 5.0);
}

// -------------------------------------------------------------- filaments

TEST(Coupling, CoaxialMutualMatchesFarFieldDipole) {
  // For d >> a, b: M -> mu0 pi a^2 b^2 / (2 d^3).
  const double a = 1e-3, b = 2e-3, d = 0.2;
  const double exact = mutual_coaxial_filaments(a, b, d);
  const double dipole = constants::kMu0 * constants::kPi * a * a * b * b / (2.0 * d * d * d);
  EXPECT_NEAR(exact, dipole, dipole * 0.01);
}

TEST(Coupling, CoaxialMutualIsSymmetric) {
  EXPECT_NEAR(mutual_coaxial_filaments(3e-3, 7e-3, 5e-3),
              mutual_coaxial_filaments(7e-3, 3e-3, 5e-3), 1e-18);
}

TEST(Coupling, CoaxialMutualDecreasesWithDistance) {
  double prev = mutual_coaxial_filaments(10e-3, 5e-3, 1e-3);
  for (double d = 2e-3; d < 40e-3; d += 2e-3) {
    const double m = mutual_coaxial_filaments(10e-3, 5e-3, d);
    EXPECT_LT(m, prev);
    prev = m;
  }
}

TEST(Coupling, NeumannMatchesCoaxialAtZeroOffset) {
  const double a = 10e-3, b = 5e-3, d = 6e-3;
  const double exact = mutual_coaxial_filaments(a, b, d);
  const double numeric = mutual_filaments(a, b, d, 1e-6, 128);
  EXPECT_NEAR(numeric, exact, std::abs(exact) * 1e-3);
}

TEST(Coupling, LateralOffsetReducesCoupling) {
  const double a = 10e-3, b = 5e-3, d = 6e-3;
  const double centered = mutual_filaments(a, b, d, 0.0);
  const double offset = mutual_filaments(a, b, d, 8e-3);
  EXPECT_LT(offset, centered);
  EXPECT_GT(offset, 0.0);
}

TEST(Coupling, RejectsBadArguments) {
  EXPECT_THROW(mutual_coaxial_filaments(0.0, 1e-3, 1e-3), std::invalid_argument);
  EXPECT_THROW(mutual_filaments(1e-3, 1e-3, 1e-3, 1e-3, 2), std::invalid_argument);
}

// ---------------------------------------------------------- Neumann kernel

// mutual_filaments' Neumann double sum exactly as it was evaluated before
// the node table: the oracle the tabulated kernel must match bit for bit.
double direct_neumann(double a, double b, double d, double rho,
                      int quadrature_points) {
  const int n = quadrature_points;
  const double h = constants::kTwoPi / n;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double t = i * h;
    const double x1 = a * std::cos(t);
    const double y1 = a * std::sin(t);
    for (int j = 0; j < n; ++j) {
      const double s = j * h;
      const double x2 = rho + b * std::cos(s);
      const double y2 = b * std::sin(s);
      const double dx = x2 - x1;
      const double dy = y2 - y1;
      const double r = std::sqrt(dx * dx + dy * dy + d * d);
      sum += std::cos(t - s) / r;
    }
  }
  return constants::kMu0 / (4.0 * constants::kPi) * a * b * sum * h * h;
}

bool bit_equal(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

TEST(NeumannKernel, MatchesDirectSumOnSeededGrid) {
  std::mt19937_64 rng(0x5eedf00dULL);
  std::uniform_real_distribution<double> radius(0.5e-3, 30e-3);
  std::uniform_real_distribution<double> gap(0.2e-3, 40e-3);
  std::uniform_real_distribution<double> offset(-40e-3, 40e-3);
  for (const int n : {8, kCoilQuadraturePoints, 96, 128}) {
    for (int draw = 0; draw < 60; ++draw) {
      const double a = radius(rng);
      const double b = radius(rng);
      const double d = gap(rng);
      double rho = offset(rng);
      if (std::abs(rho) < 1e-6) rho = 1e-6;  // keep off the coaxial branch
      const double want = direct_neumann(a, b, d, rho, n);
      const double got = mutual_filaments(a, b, d, rho, n);
      EXPECT_TRUE(bit_equal(got, want))
          << "n=" << n << " a=" << a << " b=" << b << " d=" << d
          << " rho=" << rho << ": " << got << " vs " << want;
    }
  }
}

TEST(NeumannKernel, MatchesDirectSumOnProductionCoilPair) {
  const Coil tx{patch_coil_spec()};
  const Coil rx{implant_coil_spec()};
  const double distance = 6e-3;
  for (const double offset : {0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 40e-3}) {
    double want_total = 0.0;
    for (const auto& f1 : tx.filaments()) {
      for (const auto& f2 : rx.filaments()) {
        const double d = distance + f1.z + f2.z;
        const double want = direct_neumann(f1.radius, f2.radius, d, offset,
                                           kCoilQuadraturePoints);
        const double got = mutual_filaments(f1.radius, f2.radius, d, offset,
                                            kCoilQuadraturePoints);
        ASSERT_TRUE(bit_equal(got, want)) << "offset=" << offset;
        want_total += want;
      }
    }
    EXPECT_TRUE(bit_equal(mutual_inductance(tx, rx, distance, offset), want_total))
        << "offset=" << offset;
  }
}

TEST(NeumannKernel, ConcurrentFirstUseOfTheTableAgrees) {
  // Four threads race the production table's lazy construction; every
  // one must see the finished table and the oracle's bits.
  const double geometry[][4] = {
      {25e-3, 5e-3, 6e-3, 8e-3}, {10e-3, 4e-3, 3e-3, 1e-3},
      {5e-3, 5e-3, 12e-3, -6e-3}, {30e-3, 2e-3, 17e-3, 20e-3}};
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      start.arrive_and_wait();
      for (const auto& g : geometry) {
        results[k].push_back(
            mutual_filaments(g[0], g[1], g[2], g[3], kCoilQuadraturePoints));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < std::size(geometry); ++i) {
    const auto& g = geometry[i];
    const double want =
        direct_neumann(g[0], g[1], g[2], g[3], kCoilQuadraturePoints);
    for (int k = 0; k < kThreads; ++k) {
      ASSERT_EQ(results[k].size(), std::size(geometry));
      EXPECT_TRUE(bit_equal(results[k][i], want)) << "thread " << k << " case " << i;
    }
  }
}

// -------------------------------------------------------------------- coil

TEST(Coil, ImplantCoilPlausibleParameters) {
  const Coil coil{implant_coil_spec()};
  EXPECT_EQ(coil.filaments().size(), 14u);  // 14 turns, as published
  // Area-equivalent radius of a 38 x 2 mm outline: ~4.9 mm.
  EXPECT_NEAR(coil.equivalent_radius(), 4.92e-3, 0.1e-3);
  // Multi-layer mm-scale coil: inductance in the 0.1 - 30 uH range.
  EXPECT_GT(coil.inductance(), 0.1e-6);
  EXPECT_LT(coil.inductance(), 30e-6);
  // Resistance: ohms, not milli- or kilo-ohms.
  EXPECT_GT(coil.dc_resistance(), 0.1);
  EXPECT_LT(coil.dc_resistance(), 50.0);
}

TEST(Coil, BothCoilsInUsableInductanceRange) {
  // A 5 MHz series-tuned link wants single-digit uH coils on both sides.
  const Coil patch{patch_coil_spec()};
  const Coil implant{implant_coil_spec()};
  EXPECT_GT(patch.inductance(), 0.3e-6);
  EXPECT_LT(patch.inductance(), 10e-6);
  EXPECT_GT(implant.inductance(), 0.3e-6);
  EXPECT_LT(implant.inductance(), 10e-6);
}

TEST(Coil, AcResistanceExceedsDcAtCarrier) {
  const Coil coil{implant_coil_spec()};
  const double rdc = coil.dc_resistance();
  const double rac = coil.ac_resistance(5e6);
  EXPECT_GT(rac, rdc);
  EXPECT_LT(rac, rdc * 5.0);  // skin effect is moderate at 5 MHz / 35 um
  EXPECT_DOUBLE_EQ(coil.ac_resistance(0.0), rdc);
}

TEST(Coil, SelfResonanceWellAboveCarrier) {
  // The link only works if the coils are used well below SRF.
  const Coil patch{patch_coil_spec()};
  const Coil implant{implant_coil_spec()};
  EXPECT_GT(patch.self_resonance_frequency(), 15e6);
  EXPECT_GT(implant.self_resonance_frequency(), 15e6);
}

TEST(Coil, QualityFactorReasonableAtCarrier) {
  const Coil patch{patch_coil_spec()};
  const double q = patch.quality_factor(5e6);
  EXPECT_GT(q, 10.0);
  EXPECT_LT(q, 500.0);
}

TEST(Coil, InductanceGrowsWithTurns) {
  CoilSpec spec = patch_coil_spec();
  const double l6 = Coil{spec}.inductance();
  spec.turns_per_layer = 3;
  const double l3 = Coil{spec}.inductance();
  // Doubling the turns multiplies L by well over 2x (approaching 4x for
  // tightly coupled turns; inner turns shrink so the exponent is < 2).
  EXPECT_GT(l6, l3 * 2.2);
}

TEST(Coil, RejectsImpossibleGeometry) {
  CoilSpec spec = implant_coil_spec();
  spec.turns_per_layer = 100;  // cannot fit in a 2 mm outline
  EXPECT_THROW(Coil{spec}, std::invalid_argument);
  spec = implant_coil_spec();
  spec.layers = 0;
  EXPECT_THROW(Coil{spec}, std::invalid_argument);
}

// --------------------------------------------------------------- coil pair

TEST(Coupling, CoilCouplingInPhysicalRange) {
  const Coil tx{patch_coil_spec()};
  const Coil rx{implant_coil_spec()};
  const double k6 = coupling_coefficient(tx, rx, 6e-3);
  EXPECT_GT(k6, 0.005);
  EXPECT_LT(k6, 0.3);  // loosely coupled mm-range link
  const double k17 = coupling_coefficient(tx, rx, 17e-3);
  EXPECT_LT(k17, k6);
}

TEST(Coupling, MisalignmentBeyondWindingDegradesCoilCoupling) {
  // With a large transmit coil the field actually strengthens toward the
  // winding, so small offsets can *increase* coupling; the degradation
  // sets in once the receiver slides past the outer turns (~25 mm here).
  const Coil tx{patch_coil_spec()};
  const Coil rx{implant_coil_spec()};
  const double centered = mutual_inductance(tx, rx, 6e-3, 0.0);
  const double outside = mutual_inductance(tx, rx, 6e-3, 40e-3);
  EXPECT_LT(std::abs(outside), centered);
}

TEST(Coupling, MisalignmentDegradesEqualCoilCoupling) {
  // For same-size coils the centered position is the coupling maximum.
  const Coil a{implant_coil_spec()};
  const Coil b{implant_coil_spec()};
  const double centered = mutual_inductance(a, b, 6e-3, 0.0);
  const double shifted = mutual_inductance(a, b, 6e-3, 5e-3);
  EXPECT_LT(shifted, centered);
}

// ------------------------------------------------------------------ tissue

TEST(Tissue, SkinDepthLargeAt5MHz) {
  // Muscle at 5 MHz: ~0.3 m -> tissue nearly transparent, the effect the
  // paper observed with the sirloin slab.
  const double delta = tissue_skin_depth(sirloin_properties(), 5e6);
  EXPECT_GT(delta, 0.1);
  EXPECT_LT(delta, 1.0);
}

TEST(Tissue, AttenuationMildForImplantDepths) {
  const TissueSlab slab(sirloin_properties(), 17e-3);
  const double att = slab.power_attenuation(5e6);
  EXPECT_GT(att, 0.8);
  EXPECT_LT(att, 1.0);
}

TEST(Tissue, AttenuationWorsensWithFrequencyAndThickness) {
  const TissueSlab thin(sirloin_properties(), 5e-3);
  const TissueSlab thick(sirloin_properties(), 30e-3);
  EXPECT_GT(thin.power_attenuation(5e6), thick.power_attenuation(5e6));
  EXPECT_GT(thick.power_attenuation(1e6), thick.power_attenuation(50e6));
}

TEST(Tissue, ReflectedResistanceSmallAtCarrier) {
  const TissueSlab slab(sirloin_properties(), 17e-3);
  const double r = slab.reflected_resistance(5e6, 25e-3);
  EXPECT_GT(r, 0.0);
  EXPECT_LT(r, 5.0);  // should not dominate the coil ESR
}

// -------------------------------------------------------------------- link

TEST(Link, EfficiencyBelowUnityAndPositive) {
  InductiveLink link{LinkConfig{}};
  const auto a = link.analyze(1.0, link.optimal_load_resistance());
  EXPECT_GT(a.efficiency, 0.0);
  EXPECT_LT(a.efficiency, 1.0);
  EXPECT_GT(a.power_delivered, 0.0);
  EXPECT_LE(a.power_delivered, a.power_in);
}

TEST(Link, PowerScalesQuadraticallyWithDrive) {
  InductiveLink link{LinkConfig{}};
  const double rl = link.optimal_load_resistance();
  const double p1 = link.analyze(1.0, rl).power_delivered;
  const double p2 = link.analyze(2.0, rl).power_delivered;
  EXPECT_NEAR(p2 / p1, 4.0, 1e-9);
}

TEST(Link, DriveForPowerRoundTrips) {
  InductiveLink link{LinkConfig{}};
  const double rl = link.optimal_load_resistance();
  const double v = link.drive_for_power(15e-3, rl);
  EXPECT_NEAR(link.analyze(v, rl).power_delivered, 15e-3, 1e-6);
}

TEST(Link, PowerFallsWithDistanceBeyondCriticalCoupling) {
  // Fixed-drive delivered power peaks at critical coupling (~10 mm for
  // this pair) and falls monotonically beyond it — the regime the paper's
  // 6 -> 17 mm measurements live in for their fixed transmitter setting.
  InductiveLink link{LinkConfig{}};
  const double rl = 10.0;
  double prev = 1e9;
  for (double d : {10e-3, 14e-3, 17e-3, 21e-3, 25e-3, 30e-3}) {
    link.set_distance(d);
    const double p = link.analyze(1.0, rl).power_delivered;
    EXPECT_LT(p, prev) << "at d=" << d;
    prev = p;
  }
}

TEST(Link, EfficiencyFallsMonotonicallyWithDistance) {
  InductiveLink link{LinkConfig{}};
  const double rl = 10.0;
  double prev = 1.0;
  for (double d : {4e-3, 6e-3, 10e-3, 17e-3, 25e-3}) {
    link.set_distance(d);
    const double eff = link.analyze(1.0, rl).efficiency;
    EXPECT_LT(eff, prev) << "at d=" << d;
    prev = eff;
  }
}

TEST(Link, TissueBarelyChangesReceivedPower) {
  // The paper's headline observation: sirloin at 17 mm ~ air at 17 mm.
  LinkConfig cfg;
  cfg.distance = 17e-3;
  InductiveLink air{cfg};
  cfg.tissue = TissueSlab(sirloin_properties(), 17e-3);
  InductiveLink meat{cfg};
  const double pa = air.analyze(1.0, 10.0).power_delivered;
  const double pm = meat.analyze(1.0, 10.0).power_delivered;
  EXPECT_LT(pm, pa);
  EXPECT_GT(pm, 0.75 * pa);
}

TEST(Link, TuningCapacitorsResonateCoils) {
  InductiveLink link{LinkConfig{}};
  const double omega = ironic::constants::kTwoPi * 5e6;
  EXPECT_NEAR(omega * link.tx_tuning_capacitance() * omega * link.tx_coil().inductance(),
              1.0, 1e-9);
  EXPECT_NEAR(omega * link.rx_tuning_capacitance() * omega * link.rx_coil().inductance(),
              1.0, 1e-9);
}

TEST(Link, AddToCircuitProducesCoupledInductors) {
  InductiveLink link{LinkConfig{}};
  ironic::spice::Circuit ckt;
  auto& t = link.add_to_circuit(ckt, "LINK", ckt.node("p"), ironic::spice::kGround,
                                ckt.node("s"), ironic::spice::kGround);
  EXPECT_NEAR(t.coupling(), link.coupling(), link.coupling() * 1e-9);
  EXPECT_EQ(ckt.devices().size(), 1u);
}

TEST(Link, SetPlacementMatchesAFreshLinkBitForBit) {
  InductiveLink moved{LinkConfig{}};
  moved.set_placement(9e-3, 4e-3);  // both coordinates in one call
  LinkConfig config;
  config.distance = 9e-3;
  config.lateral_offset = 4e-3;
  const InductiveLink fresh{config};
  EXPECT_TRUE(bit_equal(moved.mutual(), fresh.mutual()));
  EXPECT_TRUE(bit_equal(moved.coupling(), fresh.coupling()));
  EXPECT_TRUE(bit_equal(moved.analyze(3.5, 150.0).power_delivered,
                        fresh.analyze(3.5, 150.0).power_delivered));
}

TEST(Link, SetPlacementRejectsNonFiniteOrNonPositiveInputs) {
  InductiveLink link{LinkConfig{}};
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(link.set_placement(std::nan(""), 0.0), std::invalid_argument);
  EXPECT_THROW(link.set_placement(inf, 0.0), std::invalid_argument);
  EXPECT_THROW(link.set_placement(6e-3, std::nan("")), std::invalid_argument);
  EXPECT_THROW(link.set_placement(6e-3, -inf), std::invalid_argument);
  EXPECT_THROW(link.set_placement(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(link.set_lateral_offset(inf), std::invalid_argument);
  // A rejected placement leaves the geometry untouched.
  EXPECT_EQ(link.config().distance, LinkConfig{}.distance);
  EXPECT_EQ(link.config().lateral_offset, 0.0);
}

TEST(Link, RejectsInvalidConfig) {
  InductiveLink link{LinkConfig{}};
  EXPECT_THROW(link.set_distance(0.0), std::invalid_argument);
  EXPECT_THROW(link.analyze(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(link.drive_for_power(-1.0, 10.0), std::invalid_argument);
}

}  // namespace
