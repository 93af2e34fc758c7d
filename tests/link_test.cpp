// LinkPhy backend contract tests: the registry, the physical-law
// properties every backend must satisfy (power monotone in distance and
// lateral offset, efficiency bounded, BER monotone in bit rate), the
// PWM backscatter codec, the bio-impedance workload's programmatic
// circuit pinned against the shipped netlist, and the compatibility of
// the deprecated free-function laws with backend #1.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/comms/pwm.hpp"
#include "src/fault/bioz.hpp"
#include "src/fault/plant.hpp"
#include "src/link/inductive.hpp"
#include "src/link/magnetoelectric.hpp"
#include "src/link/phy.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/netlist_parser.hpp"

namespace {

using namespace ironic;

TEST(LinkRegistry, ListsBothBackends) {
  const auto names = link::backend_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "inductive");
  EXPECT_EQ(names[1], "me");
  for (const auto& name : names) {
    EXPECT_TRUE(link::is_backend(name));
    auto phy = link::make_backend(name);
    ASSERT_NE(phy, nullptr);
    EXPECT_EQ(phy->name(), name);
  }
  EXPECT_FALSE(link::is_backend("bogus"));
}

TEST(LinkRegistry, UnknownBackendThrowsWithTheRegisteredNames) {
  try {
    link::make_backend("bogus");
    FAIL() << "make_backend accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("inductive"), std::string::npos);
    EXPECT_NE(what.find("me"), std::string::npos);
  }
  EXPECT_THROW(link::nominal_profile("bogus"), std::invalid_argument);
}

TEST(LinkRegistry, NominalProfileMatchesTheConstructedBackend) {
  for (const auto& name : link::backend_names()) {
    const auto& cheap = link::nominal_profile(name);
    auto phy = link::make_backend(name);
    EXPECT_DOUBLE_EQ(cheap.rate_bps, phy->nominal().rate_bps);
    EXPECT_DOUBLE_EQ(cheap.drive_v, phy->nominal().drive_v);
    EXPECT_DOUBLE_EQ(cheap.load_ohms, phy->nominal().load_ohms);
    EXPECT_DOUBLE_EQ(cheap.cadence_s, phy->nominal().cadence_s);
    EXPECT_DOUBLE_EQ(cheap.carrier_hz, phy->nominal().carrier_hz);
  }
}

// The backend-author contract from src/link/phy.hpp, swept over every
// registered backend so a third backend inherits the gate for free.
TEST(LinkPhyProperty, PowerMonotoneNonIncreasingInDistance) {
  for (const auto& name : link::backend_names()) {
    auto phy = link::make_backend(name);
    link::LinkCondition cond = phy->nominal_condition();
    double prev = phy->power_delivered(cond);
    EXPECT_GT(prev, 0.0) << name;
    for (int i = 1; i <= 12; ++i) {
      cond.distance = phy->nominal_condition().distance + 2e-3 * i;
      const double p = phy->power_delivered(cond);
      EXPECT_LE(p, prev + 1e-15) << name << " at " << cond.distance;
      EXPECT_GE(p, 0.0) << name;
      prev = p;
    }
  }
}

TEST(LinkPhyProperty, PowerMonotoneNonIncreasingInLateralOffset) {
  for (const auto& name : link::backend_names()) {
    auto phy = link::make_backend(name);
    link::LinkCondition cond = phy->nominal_condition();
    double prev = phy->power_delivered(cond);
    for (int i = 1; i <= 10; ++i) {
      cond.lateral_offset = 1e-3 * i;
      const double p = phy->power_delivered(cond);
      EXPECT_LE(p, prev + 1e-15) << name << " at offset " << cond.lateral_offset;
      prev = p;
    }
  }
}

TEST(LinkPhyProperty, EfficiencyStaysInPhysicalBounds) {
  for (const auto& name : link::backend_names()) {
    auto phy = link::make_backend(name);
    link::LinkCondition cond = phy->nominal_condition();
    for (int i = 0; i <= 10; ++i) {
      cond.distance = phy->nominal_condition().distance + 3e-3 * i;
      const double eta = phy->efficiency(cond);
      EXPECT_GE(eta, 0.0) << name;
      EXPECT_LE(eta, 1.0) << name << " at " << cond.distance;
    }
  }
}

TEST(LinkPhyProperty, BerMonotoneNonDecreasingInBitRate) {
  for (const auto& name : link::backend_names()) {
    auto phy = link::make_backend(name);
    const double p = 0.3 * phy->nominal_power();
    const double sensitivity = phy->nominal_power() / 8.0;
    const double r0 = phy->nominal().rate_bps;
    double prev = phy->bit_error_rate(p, sensitivity, r0 / 8.0);
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      const double ber = phy->bit_error_rate(p, sensitivity, r0 * scale);
      EXPECT_GE(ber, prev - 1e-15) << name << " at rate x" << scale;
      EXPECT_GE(ber, 0.0) << name;
      EXPECT_LE(ber, 0.5) << name;
      prev = ber;
    }
  }
}

TEST(LinkPhyProperty, DriveCompensationRecoversNominalAtNominalPower) {
  for (const auto& name : link::backend_names()) {
    auto phy = link::make_backend(name);
    EXPECT_NEAR(phy->drive_amplitude(phy->nominal_power()),
                phy->nominal().drive_v, 1e-12)
        << name;
    // Degraded power never *raises* the drive above nominal.
    EXPECT_LE(phy->drive_amplitude(0.1 * phy->nominal_power()),
              phy->nominal().drive_v)
        << name;
    EXPECT_GT(phy->drive_amplitude(0.0), 0.0) << name;
  }
}

TEST(LinkPhyProperty, ModulationNamesAreDistinctPerBackend) {
  auto inductive = link::make_backend("inductive");
  auto me = link::make_backend("me");
  EXPECT_NE(inductive->downlink_modulation(), me->downlink_modulation());
  EXPECT_NE(inductive->uplink_modulation(), me->uplink_modulation());
}

// --- PWM backscatter codec --------------------------------------------------

TEST(PwmCodec, RoundTripsAnyBitPattern) {
  comms::PwmCodec codec;
  const comms::Bits bits = {true, false, false, true, true, true, false, true};
  const comms::Bits chips = codec.encode(bits);
  EXPECT_EQ(chips.size(),
            bits.size() * static_cast<std::size_t>(codec.chips_per_bit));
  EXPECT_EQ(codec.decode(chips), bits);
}

TEST(PwmCodec, MajorityDetectorAbsorbsOneChipFlipPerSymbol) {
  comms::PwmCodec codec;
  const comms::Bits bits = {true, false, true, false};
  comms::Bits chips = codec.encode(bits);
  // Flip one chip inside every symbol: the duty-cycle margin between
  // duty_zero (2/8) and duty_one (6/8) swallows a single flip.
  const auto cpb = static_cast<std::size_t>(codec.chips_per_bit);
  for (std::size_t symbol = 0; symbol < bits.size(); ++symbol) {
    const std::size_t i = symbol * cpb + (symbol % cpb);
    chips[i] = !chips[i];
  }
  EXPECT_EQ(codec.decode(chips), bits);
}

TEST(PwmCodec, DropsTrailingPartialSymbol) {
  comms::PwmCodec codec;
  comms::Bits chips = codec.encode({true, false});
  chips.pop_back();  // torn tail
  EXPECT_EQ(codec.decode(chips).size(), 1u);
}

// --- bio-impedance workload -------------------------------------------------

TEST(BioZ, ProgrammaticLadderMatchesTheShippedNetlist) {
  // The programmatic circuit at scale 1.0 must be the twin of
  // examples/netlists/tissue_ladder.cir: same topology, same values,
  // same transient response at the sense tap.
  const std::filesystem::path path = std::filesystem::path(IRONIC_SOURCE_DIR) /
                                     "examples" / "netlists" /
                                     "tissue_ladder.cir";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream text;
  text << in.rdbuf();

  spice::Circuit parsed;
  spice::parse_netlist(parsed, text.str());
  // The shipped netlist pulses 0 -> 3 V; build the twin at the same drive.
  auto built = fault::build_tissue_ladder(3.0, 1.0);

  spice::TransientOptions opts;
  opts.t_stop = 20e-6;
  opts.dt_max = 50e-9;
  opts.record_every = 4;
  opts.record_signals = {"v(t5)"};
  const auto ref = spice::run_transient(parsed, opts);
  const auto res = spice::run_transient(*built, opts);
  EXPECT_NEAR(res.mean_between("v(t5)", 10e-6, 20e-6),
              ref.mean_between("v(t5)", 10e-6, 20e-6), 1e-9);
}

TEST(BioZ, MeasurementRisesWithTissueScaleAndStaysDeterministic) {
  fault::BioZPlant plant;
  const double lo = plant.measure(2.4, 0.5);
  const double mid = plant.measure(2.4, 1.0);
  const double hi = plant.measure(2.4, 3.0);
  // Re/Ri up -> the divider tap rises: drift is observable in the codes.
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
  EXPECT_EQ(plant.measurements, 3);
  // In the 12-bit ADC window.
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, 4.0);
  fault::BioZPlant again;
  EXPECT_DOUBLE_EQ(again.measure(2.4, 1.0), mid);
}

TEST(BioZ, TissueLadderEngineCountersArePinned) {
  // One BioZPlant::measure transient at the ME nominal drive, run the
  // way the plant runs it (build_tissue_ladder, the same options): its
  // exact engine and solver counters and the bits of the measured value.
  // A device or engine change that claims to move no bit must leave
  // every one of them alone.
  const double drive = link::kMagnetoelectricNominal.drive_v;
  auto ckt = fault::build_tissue_ladder(drive, 1.0);
  spice::TransientOptions opts;
  opts.t_stop = 20e-6;
  opts.dt_max = 50e-9;
  opts.record_every = 4;
  opts.record_signals = {"v(t5)"};
  spice::TransientStats stats;
  const auto res = spice::run_transient(*ckt, opts, &stats);
  const double measured = res.mean_between("v(t5)", 10e-6, 20e-6);

  EXPECT_EQ(stats.accepted_steps, 400u);
  EXPECT_EQ(stats.rejected_steps, 0u);
  EXPECT_EQ(stats.breakpoint_hits, 2u);
  EXPECT_EQ(stats.newton_iterations, 400u);
  EXPECT_EQ(stats.factorizations, 7u);
  EXPECT_EQ(stats.solves, 400u);
  EXPECT_EQ(stats.max_newton_iterations, 1u);

  const auto& solver = ckt->acquire_solver().stats();
  EXPECT_EQ(solver.factorizations, 7u);
  EXPECT_EQ(solver.refactorizations, 6u);
  EXPECT_EQ(solver.solves, 400u);
  EXPECT_EQ(solver.pattern_builds, 1u);
  EXPECT_EQ(solver.pattern_reuses, 6u);
  EXPECT_EQ(solver.nnz, 363u);
  EXPECT_EQ(solver.factor_nnz, 363u);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(measured), 0x3fe407974217d7c6u);
  // The plant's own measure is this run.
  fault::BioZPlant plant;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plant.measure(drive, 1.0)),
            std::bit_cast<std::uint64_t>(measured));
}

TEST(BioZ, TissueScaleMapsThicknessFaultsIntoTheClampedBand) {
  EXPECT_DOUBLE_EQ(fault::bioz_tissue_scale(std::nullopt), 1.0);
  EXPECT_DOUBLE_EQ(fault::bioz_tissue_scale(10e-3), 1.0);
  EXPECT_DOUBLE_EQ(fault::bioz_tissue_scale(20e-3), 2.0);
  EXPECT_DOUBLE_EQ(fault::bioz_tissue_scale(1e-3), 0.5);    // clamp low
  EXPECT_DOUBLE_EQ(fault::bioz_tissue_scale(200e-3), 3.0);  // clamp high
}

// --- backend #1 compatibility ----------------------------------------------

TEST(LinkBudget, DefaultIsTheInductiveBackend) {
  fault::LinkBudget def;
  fault::LinkBudget named("inductive");
  EXPECT_STREQ(def.phy->name(), "inductive");
  EXPECT_DOUBLE_EQ(def.p_nominal, named.p_nominal);
  EXPECT_DOUBLE_EQ(def.nominal().rate_bps, link::kInductiveNominal.rate_bps);
  EXPECT_DOUBLE_EQ(def.nominal().cadence_s, link::kInductiveNominal.cadence_s);
  EXPECT_DOUBLE_EQ(def.nominal().drive_v, link::kInductiveNominal.drive_v);
  EXPECT_DOUBLE_EQ(def.nominal().load_ohms, link::kInductiveNominal.load_ohms);
  EXPECT_DOUBLE_EQ(def.nominal().carrier_hz, link::kInductiveNominal.carrier_hz);
}

TEST(LinkBudget, PowerMemoIsBitExactAndCountsHits) {
  for (const auto& name : link::backend_names()) {
    SCOPED_TRACE(name);
    fault::LinkBudget budget(name);
    const link::LinkCondition nominal = budget.phy->nominal_condition();
    link::LinkCondition offset = nominal;
    offset.lateral_offset = 5e-3;
    link::LinkCondition slab = offset;
    slab.tissue_thickness = 17e-3;
    link::LinkCondition thicker = offset;
    thicker.tissue_thickness = 25e-3;
    link::LinkCondition negative_zero = nominal;
    negative_zero.lateral_offset = -0.0;

    fault::FaultSchedule schedule;
    schedule.add({fault::FaultKind::kMisalignment, 1.0, 2.0, 5e-3});
    schedule.add({fault::FaultKind::kTissueDrift, 2.0, 0.5, 17e-3});
    schedule.add({fault::FaultKind::kTissueDrift, 2.5, 0.5, 25e-3});
    schedule.add({fault::FaultKind::kMisalignment, 4.0, 1.0, -0.0});
    fault::SimClock clock;
    fault::FaultInjector injector(&schedule, &clock, util::Rng(7));

    const struct {
      double t;
      link::LinkCondition condition;
    } steps[] = {
        {0.0, nominal}, {1.0, offset},  {1.5, offset},  // the repeat hits
        {2.0, slab},    {2.5, thicker},                 // tissue-only changes
        {3.0, nominal}, {4.0, negative_zero},
    };
    std::vector<double> powers;
    for (const auto& step : steps) {
      clock.advance(step.t - clock.now());
      const double got = budget.power_now(injector);
      const double want = link::make_backend(name)->power_delivered(step.condition);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "t=" << step.t << ": " << got << " vs " << want;
      powers.push_back(got);
    }
    // Every change of condition really moved the power, so a stale memo
    // would show.
    EXPECT_NE(powers[1], powers[0]);
    EXPECT_NE(powers[3], powers[2]);
    EXPECT_NE(powers[4], powers[3]);
    EXPECT_EQ(budget.power_queries, 7u);
    // -0.0 and +0.0 are different keys: only the repeated offset hits.
    EXPECT_EQ(budget.power_hits, 1u);
  }
}

TEST(LinkBudget, UnknownBackendThrows) {
  EXPECT_THROW(fault::LinkBudget bogus("bogus"), std::invalid_argument);
}

}  // namespace
