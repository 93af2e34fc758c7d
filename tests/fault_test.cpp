// Fault schedules and the injector: window arithmetic, stochastic
// generation determinism, and the comms channel wrapper; the plant's
// restart cost under a shared memo; and the pinned charge-up checkpoint.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <memory>
#include <stdexcept>

#include "src/comms/bitstream.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/plant.hpp"
#include "src/fault/schedule.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/engine.hpp"
#include "src/util/fingerprint.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace ironic;
using namespace ironic::fault;

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(0.0);
  EXPECT_EQ(clock.now(), 1.5);
  EXPECT_THROW(clock.advance(-1e-9), std::invalid_argument);
}

TEST(FaultSchedule, WindowsAndPermanence) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBitFlip, 1.0, 2.0, 0.01, LinkDirection::kDownlink});
  schedule.add({FaultKind::kCouplingStep, 5.0, -1.0, 17e-3, LinkDirection::kBoth});

  const auto down = LinkDirection::kDownlink;
  EXPECT_EQ(schedule.active(FaultKind::kBitFlip, 0.5, down), nullptr);
  ASSERT_NE(schedule.active(FaultKind::kBitFlip, 1.0, down), nullptr);
  ASSERT_NE(schedule.active(FaultKind::kBitFlip, 2.9, down), nullptr);
  // End of the window is exclusive.
  EXPECT_EQ(schedule.active(FaultKind::kBitFlip, 3.0, down), nullptr);
  // Direction filter: a downlink fault never applies to the uplink.
  EXPECT_EQ(schedule.active(FaultKind::kBitFlip, 1.5, LinkDirection::kUplink),
            nullptr);

  // duration <= 0 is permanent.
  EXPECT_EQ(schedule.active(FaultKind::kCouplingStep, 4.9), nullptr);
  ASSERT_NE(schedule.active(FaultKind::kCouplingStep, 1e9), nullptr);
}

TEST(FaultSchedule, LatestStartWinsOnOverlap) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kOvervoltage, 0.0, -1.0, 1.5, LinkDirection::kBoth});
  schedule.add({FaultKind::kOvervoltage, 2.0, -1.0, 2.5, LinkDirection::kBoth});
  EXPECT_EQ(schedule.active(FaultKind::kOvervoltage, 1.0)->magnitude, 1.5);
  EXPECT_EQ(schedule.active(FaultKind::kOvervoltage, 3.0)->magnitude, 2.5);
}

TEST(FaultSchedule, StartedBetweenIsEdgeTriggered) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBrownout, 1.0, 0.0, 0.05, LinkDirection::kBoth});
  schedule.add({FaultKind::kBrownout, 2.0, 0.0, 0.10, LinkDirection::kBoth});
  EXPECT_EQ(schedule.started_between(FaultKind::kBrownout, 0.0, 0.5).size(), 0u);
  EXPECT_EQ(schedule.started_between(FaultKind::kBrownout, 0.0, 1.0).size(), 1u);
  EXPECT_EQ(schedule.started_between(FaultKind::kBrownout, 1.0, 3.0).size(), 1u);
  EXPECT_EQ(schedule.started_between(FaultKind::kBrownout, 0.5, 3.0).size(), 2u);
}

TEST(FaultSchedule, StochasticIsDeterministicPerSeed) {
  auto rng_a = ironic::util::Rng::stream(42, 0);
  auto rng_b = ironic::util::Rng::stream(42, 0);
  const auto a = FaultSchedule::stochastic(rng_a);
  const auto b = FaultSchedule::stochastic(rng_b);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    EXPECT_EQ(a.events()[i].direction, b.events()[i].direction);
  }
}

TEST(FaultSchedule, StochasticRespectsKindRanges) {
  auto rng = ironic::util::Rng::stream(7, 0);
  StochasticScheduleConfig config;
  config.horizon = 100.0;
  for (auto& mean : config.events_per_kind) mean = 5.0;  // plenty of samples
  const auto schedule = FaultSchedule::stochastic(rng, config);
  ASSERT_FALSE(schedule.empty());
  for (const auto& event : schedule.events()) {
    EXPECT_GE(event.start, 0.0);
    EXPECT_LT(event.start, config.horizon);
    switch (event.kind) {
      case FaultKind::kCouplingStep:
      case FaultKind::kMisalignment:
      case FaultKind::kTissueDrift:
        EXPECT_LE(event.duration, 0.0) << "step kinds are permanent";
        break;
      case FaultKind::kBrownout:
        EXPECT_EQ(event.duration, 0.0) << "brownouts are instantaneous";
        EXPECT_GE(event.magnitude, 0.02);
        EXPECT_LE(event.magnitude, 0.10);
        break;
      case FaultKind::kBitFlip:
        EXPECT_GT(event.duration, 0.0);
        EXPECT_GE(event.magnitude, 1e-3);
        EXPECT_LE(event.magnitude, 2e-2);
        break;
      case FaultKind::kBurstError:
        EXPECT_GE(event.magnitude, 4.0);
        EXPECT_LE(event.magnitude, 24.0);
        break;
      case FaultKind::kOvervoltage:
        EXPECT_GE(event.magnitude, 1.5);
        EXPECT_LE(event.magnitude, 2.5);
        break;
      case FaultKind::kLdoDropout:
        EXPECT_GE(event.magnitude, 0.3);
        EXPECT_LE(event.magnitude, 0.8);
        break;
    }
  }
}

TEST(FaultInjector, GeometryAndScaleOverrides) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kCouplingStep, 1.0, -1.0, 17e-3, LinkDirection::kBoth});
  schedule.add({FaultKind::kTissueDrift, 2.0, -1.0, 12e-3, LinkDirection::kBoth});
  schedule.add({FaultKind::kOvervoltage, 3.0, 1.0, 1.8, LinkDirection::kBoth});
  schedule.add({FaultKind::kLdoDropout, 3.0, 1.0, 0.5, LinkDirection::kBoth});
  SimClock clock;
  FaultInjector injector(&schedule, &clock, ironic::util::Rng(1));

  // t = 0: everything at base values.
  EXPECT_EQ(injector.distance(6e-3), 6e-3);
  EXPECT_FALSE(injector.tissue_thickness().has_value());
  EXPECT_EQ(injector.drive_scale(), 1.0);
  EXPECT_EQ(injector.rail_scale(), 1.0);

  clock.advance(3.5);  // all events active
  EXPECT_EQ(injector.distance(6e-3), 17e-3);
  ASSERT_TRUE(injector.tissue_thickness().has_value());
  EXPECT_EQ(*injector.tissue_thickness(), 12e-3);
  EXPECT_EQ(injector.drive_scale(), 1.8);
  EXPECT_EQ(injector.rail_scale(), 0.5);

  clock.advance(1.0);  // the 1 s transients expired; steps persist
  EXPECT_EQ(injector.drive_scale(), 1.0);
  EXPECT_EQ(injector.rail_scale(), 1.0);
  EXPECT_EQ(injector.distance(6e-3), 17e-3);
}

TEST(FaultInjector, BrownoutFractionAccumulatesAndTallies) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBrownout, 1.0, 0.0, 0.05, LinkDirection::kBoth});
  schedule.add({FaultKind::kBrownout, 2.0, 0.0, 0.10, LinkDirection::kBoth});
  SimClock clock;
  FaultInjector injector(&schedule, &clock, ironic::util::Rng(1));
  EXPECT_EQ(injector.brownout_fraction(0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(injector.brownout_fraction(0.5, 3.0), 0.15);
  EXPECT_EQ(injector.injected(FaultKind::kBrownout), 2u);
}

TEST(FaultInjector, BurstWrapperInvertsContiguousRun) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBurstError, 0.0, -1.0, 8.0, LinkDirection::kDownlink});
  SimClock clock;
  FaultInjector injector(&schedule, &clock, ironic::util::Rng(3));

  auto rng = ironic::util::Rng::stream(11, 0);
  const auto sent = comms::random_bits(64, rng);
  auto channel = injector.wrap({}, LinkDirection::kDownlink);
  const auto received = channel(sent);
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(comms::hamming_distance(sent, received), 8u);
  // The corrupted bits form one contiguous run.
  std::size_t first = sent.size(), last = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i] != received[i]) {
      first = std::min(first, i);
      last = i;
    }
  }
  EXPECT_EQ(last - first + 1, 8u);
  EXPECT_EQ(injector.injected(FaultKind::kBurstError), 1u);

  // The uplink is clean: the fault is direction-scoped.
  auto uplink = injector.wrap({}, LinkDirection::kUplink);
  EXPECT_EQ(comms::hamming_distance(sent, uplink(sent)), 0u);
}

TEST(FaultInjector, BitFlipWrapperFlipsAtConfiguredRate) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBitFlip, 0.0, -1.0, 0.05, LinkDirection::kBoth});
  SimClock clock;
  FaultInjector injector(&schedule, &clock, ironic::util::Rng(5));

  auto rng = ironic::util::Rng::stream(13, 0);
  const auto sent = comms::random_bits(4000, rng);
  auto channel = injector.wrap({}, LinkDirection::kDownlink);
  const auto received = channel(sent);
  const auto flipped = comms::hamming_distance(sent, received);
  // 4000 draws at p = 0.05: expect ~200, allow a generous band.
  EXPECT_GT(flipped, 120u);
  EXPECT_LT(flipped, 300u);
  EXPECT_GE(injector.injected(FaultKind::kBitFlip), 1u);
}

TEST(FaultInjector, RequiresScheduleAndClock) {
  FaultSchedule schedule;
  SimClock clock;
  EXPECT_THROW(FaultInjector(nullptr, &clock, ironic::util::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(&schedule, nullptr, ironic::util::Rng(1)),
               std::invalid_argument);
}

// Two plants forked from one blob and measured at two different drives
// each restart from the blob. A restart is a count, not a run: each
// plant simulates only its own segment, so one shared PlantMemos runs 2
// transients for them, and each plant still reads exactly what a plant
// without a memo reads.
TEST(RectifierPlant, RestartRunsOnlyItsSegment) {
  const ChargeUpSpec spec;
  const auto blob = std::make_shared<const spice::TransientCheckpoint>(
      capture_charged_checkpoint(spec));
  const std::array<double, 2> drives = {0.8 * spec.amplitude,
                                        1.1 * spec.amplitude};
  auto& runs = obs::MetricsRegistry::instance().counter("spice.transient.runs");
  const bool counted = obs::kEnabled && obs::runtime_enabled();
  std::array<double, 2> solo{};
  for (std::size_t k = 0; k < drives.size(); ++k) {
    RectifierPlant plant;
    plant.fork_from(blob, spec.amplitude);
    const std::uint64_t runs_before = runs.value();
    solo[k] = plant.measure(drives[k]);
    EXPECT_EQ(plant.restarts, 1);
    if (counted) {
      EXPECT_EQ(runs.value() - runs_before, 1u);
    }
  }

  const std::uint64_t runs_before = runs.value();
  PlantMemos memos;
  for (std::size_t k = 0; k < drives.size(); ++k) {
    RectifierPlant plant;
    plant.memo = &memos.segments;
    plant.fork_from(blob, spec.amplitude);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plant.measure(drives[k])),
              std::bit_cast<std::uint64_t>(solo[k]))
        << "drive " << drives[k];
    EXPECT_EQ(plant.restarts, 1);
  }
  if (counted) {
    EXPECT_EQ(runs.value() - runs_before, 2u);
  }
  EXPECT_EQ(memos.segments.misses(), 2u);  // one segment per drive
  EXPECT_EQ(memos.segments.hits(), 0u);
}

// The charge-up every fleet service runs first (Fig. 11): the plant's
// rectifier from rest to 270 us at the 10 ns step. Pins its engine counts and the
// bits of the checkpoint every session forks from, so a kernel change
// that claims to alter nothing must leave all of them where they are.
TEST(ChargeUp, CheckpointIsPinnedBitForBit) {
  spice::TransientStats stats;
  const spice::TransientCheckpoint node = capture_charged_checkpoint(ChargeUpSpec{}, &stats);
  EXPECT_EQ(stats.accepted_steps, 27001u);
  EXPECT_EQ(stats.rejected_steps, 0u);
  EXPECT_EQ(stats.newton_iterations, 101275u);
  EXPECT_EQ(stats.factorizations, 101275u);
  EXPECT_EQ(stats.solves, 101275u);
  EXPECT_LE(stats.max_newton_iterations, 15u);
  ASSERT_EQ(node.x.size(), 13u);
  ASSERT_EQ(node.device_state.size(), 3u);

  util::Fingerprint fp;
  fp.feed(node.time);
  fp.feed(node.dt);
  for (const double v : node.x) fp.feed(v);
  for (const double v : node.device_state) fp.feed(v);
  fp.feed_i(node.success_streak);
  fp.feed(static_cast<std::uint64_t>(node.step_index));
  EXPECT_EQ(fp.value(), 0x3fe1d36cfe42012bull) << std::hex << fp.value();
}

}  // namespace
