// Fleet service: checkpoint forking, the solo-parity contract, and the
// cohort statistics.
//
// The load-bearing guarantees:
//   - every session run inside a fleet is bit-identical to running that
//     session solo with the same seed (fork == private charge-up);
//   - the fleet fingerprint is invariant to the thread count and to
//     what earlier runs on the same service left in its memos;
//   - mutating one forked plant never perturbs siblings forked from the
//     same blob (committed nodes are immutable);
//   - a memoized measure is bit-identical to the uncached one.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/cancellation.hpp"
#include "src/fault/bioz.hpp"
#include "src/fault/plant.hpp"
#include "src/fleet/fleet.hpp"
#include "src/fleet/session.hpp"
#include "src/fleet/supervisor.hpp"
#include "src/linalg/sparse.hpp"
#include "src/link/magnetoelectric.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/engine.hpp"

namespace {

using namespace ironic;

// Small but real: every session runs actual rectifier transients, so
// keep the counts low and reuse one config across tests.
fleet::FleetConfig small_config() {
  fleet::FleetConfig config;
  config.sessions = 6;
  config.threads = 2;
  config.seed = 0x5eedf1ee7ull;
  config.exchanges = 2;
  return config;
}

TEST(Fleet, EverySessionBitIdenticalToSolo) {
  const auto config = small_config();
  const auto result = fleet::run_fleet(config);
  ASSERT_EQ(result.sessions.size(), config.sessions);
  // Shared capture: one charge-up for the whole fleet, every session
  // forked from it.
  EXPECT_EQ(result.charge_captures, 1u);
  EXPECT_EQ(result.checkpoint_forks, config.sessions);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const auto solo = fleet::run_solo_session(config, i);
    EXPECT_FALSE(solo.forked);
    EXPECT_EQ(fleet::fingerprint_session(result.sessions[i]),
              fleet::fingerprint_session(solo))
        << "session " << i << " diverged from its solo run";
    // Fingerprint equality is the contract; spot-check the fields that
    // feed it so a fingerprint bug cannot mask a real divergence.
    EXPECT_EQ(result.sessions[i].completed, solo.completed);
    EXPECT_EQ(result.sessions[i].retries, solo.retries);
    EXPECT_EQ(result.sessions[i].restarts, solo.restarts);
    EXPECT_EQ(result.sessions[i].adc_codes, solo.adc_codes);
    EXPECT_EQ(result.sessions[i].recover_seconds, solo.recover_seconds);
  }
}

TEST(Fleet, FingerprintInvariantToThreadCount) {
  auto config = small_config();
  config.threads = 1;
  const auto serial = fleet::run_fleet(config);
  config.threads = 3;
  const auto pooled = fleet::run_fleet(config);
  EXPECT_EQ(serial.fingerprint, pooled.fingerprint);
  // Memo totals are exact too: misses are the distinct segments, however
  // the sessions interleave.
  EXPECT_GT(serial.segment_hits, 0u);
  EXPECT_GT(serial.segment_misses, 0u);
  EXPECT_EQ(serial.segment_hits, pooled.segment_hits);
  EXPECT_EQ(serial.segment_misses, pooled.segment_misses);
  // The derived statistics ride on the same deterministic fields.
  ASSERT_EQ(serial.cohorts.size(), pooled.cohorts.size());
  for (std::size_t c = 0; c < serial.cohorts.size(); ++c) {
    EXPECT_EQ(serial.cohorts[c].lost, pooled.cohorts[c].lost);
    EXPECT_EQ(serial.cohorts[c].recovery_p95_s, pooled.cohorts[c].recovery_p95_s);
  }
}

TEST(Fleet, FingerprintInvariantToCheckpointSharing) {
  // Sharing analog state must not change a bit: every session of a
  // fleet run, which forks the charge-up blob and reads the plant memos,
  // equals its solo run, which captures its own charge-up and reads no
  // memo. The bio-impedance workload on the magnetoelectric link shares
  // no charge-up; there sharing means the run's bioz memo.
  auto lactate = small_config();
  lactate.sessions = 3;
  auto bioz = small_config();
  for (auto& cohort : bioz.cohorts) {
    cohort.link = "me";
    cohort.workload = fault::Workload::kBioZ;
  }
  std::vector<fleet::FleetResult> bioz_runs;  // at 1, then 3 threads
  for (const auto* config : {&lactate, &bioz}) {
    std::vector<std::uint64_t> solo;
    for (std::size_t i = 0; i < config->sessions; ++i) {
      solo.push_back(
          fleet::fingerprint_session(fleet::run_solo_session(*config, i)));
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      auto run = *config;
      run.threads = threads;
      const auto result = fleet::run_fleet(run);
      ASSERT_EQ(result.sessions.size(), solo.size());
      for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(fleet::fingerprint_session(result.sessions[i]), solo[i])
            << "session " << i << " at " << threads << " threads";
      }
      if (config == &lactate) {
        EXPECT_EQ(result.charge_captures, 1u);
        EXPECT_EQ(result.checkpoint_forks, lactate.sessions);
      } else {
        EXPECT_EQ(result.charge_captures, 0u);
        EXPECT_EQ(result.checkpoint_forks, 0u);
        bioz_runs.push_back(result);
      }
    }
  }
  const auto& bioz_serial = bioz_runs[0];
  const auto& bioz_pooled = bioz_runs[1];
  EXPECT_EQ(bioz_serial.segment_misses, 0u);  // no rectifier plant ran
  // Every measure is a hit or a miss, and the totals do not depend on
  // the thread count.
  std::uint64_t measures = 0;
  for (const auto& session : bioz_serial.sessions) {
    measures += static_cast<std::uint64_t>(session.checkpoints);
  }
  EXPECT_EQ(bioz_serial.bioz_hits + bioz_serial.bioz_misses, measures);
  EXPECT_GT(bioz_serial.bioz_hits, 0u);
  EXPECT_EQ(bioz_serial.bioz_hits, bioz_pooled.bioz_hits);
  EXPECT_EQ(bioz_serial.bioz_misses, bioz_pooled.bioz_misses);
  // Misses are the distinct inputs: replaying the sessions in reverse
  // order through one fresh memo meets the same set of inputs.
  fault::PlantMemos replay;
  for (std::size_t i = bioz.sessions; i-- > 0;) {
    fleet::SessionSpec spec;
    spec.seed = bioz.seed;
    spec.index = i;
    spec.exchanges = bioz.exchanges;
    spec.cohort = bioz.cohorts[i % bioz.cohorts.size()];
    const auto session =
        fleet::run_patient_session(spec, nullptr, nullptr, {}, &replay);
    EXPECT_EQ(fleet::fingerprint_session(session),
              fleet::fingerprint_session(bioz_serial.sessions[i]))
        << "session " << i;
  }
  EXPECT_EQ(replay.bioz.misses(), bioz_serial.bioz_misses);
  EXPECT_EQ(replay.bioz.hits(), bioz_serial.bioz_hits);
}

TEST(Fleet, SessionsRestartingFromOneNodeMatchSolo) {
  // Twelve lactate sessions of two exchanges. A session whose first
  // measure runs at the nominal drive commits the node every such
  // session shares, and when a fault moves its drive before the second
  // measure it restarts from that node: the discarded half segment is
  // one input for all of them. Each session must still equal its solo
  // run, at 1 and at 4 threads.
  auto config = small_config();
  config.sessions = 12;
  std::vector<std::uint64_t> solo;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    solo.push_back(
        fleet::fingerprint_session(fleet::run_solo_session(config, i)));
  }
  // The first ADC code of a session measured first at the nominal drive.
  fault::RectifierPlant first;
  first.fork_from(std::make_shared<const spice::TransientCheckpoint>(
                      fault::capture_charged_checkpoint(config.charge)),
                  config.charge.amplitude);
  const std::uint16_t nominal_code =
      fault::adc_code(first.measure(config.charge.amplitude));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    config.threads = threads;
    const auto result = fleet::run_fleet(config);
    ASSERT_EQ(result.sessions.size(), config.sessions);
    int restarted_from_shared_node = 0;
    for (std::size_t i = 0; i < config.sessions; ++i) {
      const auto& session = result.sessions[i];
      EXPECT_EQ(fleet::fingerprint_session(session), solo[i])
          << "session " << i << " at " << threads << " threads";
      if (session.restarts == 1 && session.adc_codes.size() == 2 &&
          session.adc_codes[0] == nominal_code) {
        ++restarted_from_shared_node;
      }
    }
    EXPECT_GE(restarted_from_shared_node, 2) << threads << " threads";
  }
}

TEST(Fleet, ForkedPlantMutationNeverPerturbsSiblings) {
  const fault::ChargeUpSpec spec;
  auto blob = std::make_shared<const spice::TransientCheckpoint>(
      fault::capture_charged_checkpoint(spec));

  fault::RectifierPlant a;
  fault::RectifierPlant b;
  a.fork_from(blob, spec.amplitude);
  b.fork_from(blob, spec.amplitude);
  EXPECT_EQ(a.committed(), blob.get());
  EXPECT_EQ(b.committed(), blob.get());

  // Drive plant A through measurements (including an amplitude change,
  // which restarts from the committed point and commits new state).
  const double a1 = a.measure(spec.amplitude);
  const double a2 = a.measure(spec.amplitude * 0.8);
  EXPECT_NE(a.committed(), blob.get());  // A committed nodes of its own
  // B still references the shared blob, untouched by A's commits.
  EXPECT_EQ(b.committed(), blob.get());

  // B now measures the same sequence and must see exactly what A saw —
  // the shared blob cannot have been mutated by A's run.
  const double b1 = b.measure(spec.amplitude);
  const double b2 = b.measure(spec.amplitude * 0.8);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);

  // A fresh fork repeats it again, bit-for-bit.
  fault::RectifierPlant c;
  c.fork_from(blob, spec.amplitude);
  EXPECT_EQ(c.measure(spec.amplitude), a1);
  EXPECT_EQ(c.measure(spec.amplitude * 0.8), a2);
}

// ------------------------------------------------------------ segment memo

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

std::shared_ptr<const spice::TransientCheckpoint> charged_blob() {
  static const auto blob = std::make_shared<const spice::TransientCheckpoint>(
      fault::capture_charged_checkpoint());
  return blob;
}

TEST(SegmentMemo, MemoizedPlantIsBitIdenticalToUncachedPlant) {
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  // Nominal twice, a 0.8x drive change (a discarded half segment and a
  // restart), 0.8x again, and back to nominal (a second restart).
  const std::vector<double> drives = {nominal, nominal, 0.8 * nominal,
                                      0.8 * nominal, nominal};
  const auto blob = charged_blob();
  fault::SegmentMemo memo;
  fault::RectifierPlant cached;
  fault::RectifierPlant reference;
  cached.memo = &memo;
  cached.fork_from(blob, nominal);
  reference.fork_from(blob, nominal);

  std::vector<double> vos;
  std::vector<const spice::TransientCheckpoint*> nodes;
  for (const double drive : drives) {
    const double vo = cached.measure(drive);
    EXPECT_TRUE(same_bits(vo, reference.measure(drive))) << "drive " << drive;
    EXPECT_EQ(cached.restarts, reference.restarts);
    EXPECT_EQ(cached.checkpoints, reference.checkpoints);
    ASSERT_NE(cached.committed(), nullptr);
    ASSERT_NE(reference.committed(), nullptr);
    EXPECT_TRUE(same_bits(cached.committed()->x, reference.committed()->x));
    EXPECT_TRUE(same_bits(cached.committed()->device_state,
                          reference.committed()->device_state));
    vos.push_back(vo);
    nodes.push_back(cached.committed());
  }
  EXPECT_EQ(reference.restarts, 2);
  EXPECT_EQ(reference.checkpoints, 5);
  // Every segment and both restart halves (from two different nodes).
  EXPECT_EQ(memo.misses(), drives.size() + 2);
  EXPECT_EQ(memo.hits(), 0u);

  // A third plant with the same drive history is served entirely from
  // the memo: the same values, the same counters, the very same nodes,
  // and no restart half, since a segment read back runs nothing.
  fault::RectifierPlant replay;
  replay.memo = &memo;
  replay.fork_from(blob, nominal);
  for (std::size_t k = 0; k < drives.size(); ++k) {
    EXPECT_TRUE(same_bits(replay.measure(drives[k]), vos[k])) << "step " << k;
    EXPECT_EQ(replay.committed(), nodes[k]) << "step " << k;
  }
  EXPECT_EQ(replay.restarts, reference.restarts);
  EXPECT_EQ(replay.checkpoints, reference.checkpoints);
  EXPECT_EQ(memo.misses(), drives.size() + 2);
  EXPECT_EQ(memo.hits(), drives.size());
}

TEST(SegmentMemo, ConcurrentRequestsForOneKeySimulateOnce) {
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  const auto blob = charged_blob();
  fault::SegmentMemo memo;
  constexpr int kThreads = 4;
  std::vector<fault::RectifierPlant> plants(kThreads);
  std::vector<double> vos(kThreads, 0.0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    plants[t].memo = &memo;
    plants[t].fork_from(blob, nominal);
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      vos[t] = plants[t].measure(0.8 * nominal);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(memo.misses(), 2u);  // the segment and its restart half
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kThreads - 1));
  fault::RectifierPlant reference;
  reference.fork_from(blob, nominal);
  const double expected = reference.measure(0.8 * nominal);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(vos[t], expected)) << "thread " << t;
    EXPECT_EQ(plants[t].committed(), plants[0].committed());
    EXPECT_EQ(plants[t].restarts, reference.restarts);
    EXPECT_EQ(plants[t].checkpoints, 1);
  }
}

TEST(SegmentMemo, FailureReachesEveryRequester) {
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  const auto blob = charged_blob();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // The uncached plant's failure is the one every requester must see.
  std::string expected;
  {
    fault::RectifierPlant reference;
    reference.fork_from(blob, nominal);
    try {
      reference.measure(nan);
    } catch (const std::exception& error) {
      expected = error.what();
    }
  }
  EXPECT_NE(expected.find("run_transient: Newton failed below minimum step"),
            std::string::npos)
      << expected;

  fault::SegmentMemo memo;
  constexpr int kThreads = 3;
  std::vector<std::string> messages(kThreads);
  std::vector<fault::RectifierPlant> plants(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    plants[t].memo = &memo;
    plants[t].fork_from(blob, nominal);
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        plants[t].measure(nan);
      } catch (const std::exception& error) {
        messages[t] = error.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // The failing segment and the restart half before it, which succeeds.
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(messages[t], expected) << "thread " << t;
    // A measure that throws commits nothing.
    EXPECT_EQ(plants[t].committed(), blob.get());
    EXPECT_EQ(plants[t].checkpoints, 0);
  }
}

TEST(SegmentMemo, RestartHalfFailureReachesEveryRequester) {
  // A plant that believes its node was committed at an infinite drive
  // restarts from it, and the half segment at that drive throws. A
  // second plant on the same node measured at another drive is a new
  // segment but the same restart half: it reads the stored failure back
  // without running it.
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  const double inf = std::numeric_limits<double>::infinity();
  const auto blob = charged_blob();
  std::string expected;
  {
    fault::RectifierPlant reference;
    reference.fork_from(blob, inf);
    try {
      reference.measure(nominal);
    } catch (const std::exception& error) {
      expected = error.what();
    }
  }
  EXPECT_FALSE(expected.empty());

  fault::SegmentMemo memo;
  for (const double drive : {nominal, 0.8 * nominal}) {
    fault::RectifierPlant plant;
    plant.memo = &memo;
    plant.fork_from(blob, inf);
    std::string message;
    try {
      plant.measure(drive);
    } catch (const std::exception& error) {
      message = error.what();
    }
    EXPECT_EQ(message, expected) << "drive " << drive;
    EXPECT_EQ(plant.committed(), blob.get());  // a throw commits nothing
    EXPECT_EQ(plant.restarts, 0);
  }
  EXPECT_EQ(memo.misses(), 3u);  // 2 segments, 1 restart half
  EXPECT_EQ(memo.hits(), 1u);    // the second plant's restart half
}

TEST(SegmentMemo, RotationCarriesAnEntryWithoutSimulating) {
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  const auto blob = charged_blob();
  fault::SegmentMemo memo;
  fault::RectifierPlant first;
  first.memo = &memo;
  first.fork_from(blob, nominal);
  const double vo = first.measure(0.8 * nominal);
  EXPECT_EQ(memo.misses(), 2u);  // the segment and its restart half
  memo.rotate();
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
  EXPECT_EQ(memo.carried(), 0u);

  // The next generation reads the entry back: the same value, restart
  // and committed node, no simulation (and so no restart half).
  fault::RectifierPlant second;
  second.memo = &memo;
  second.fork_from(blob, nominal);
  EXPECT_TRUE(same_bits(second.measure(0.8 * nominal), vo));
  EXPECT_EQ(second.committed(), first.committed());
  EXPECT_EQ(second.restarts, first.restarts);
  EXPECT_EQ(memo.misses(), 0u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.carried(), 1u);
  // Carried once: a later request is a plain hit of this generation.
  fault::RectifierPlant third;
  third.memo = &memo;
  third.fork_from(blob, nominal);
  EXPECT_TRUE(same_bits(third.measure(0.8 * nominal), vo));
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.carried(), 1u);
}

TEST(SegmentMemo, EntryUnusedForAGenerationIsReleased) {
  fault::SegmentMemo memo;
  int simulations = 0;
  const auto simulate = [&] {
    ++simulations;
    return fault::Segment{};
  };
  const auto key_of = [](const std::shared_ptr<const int>& parent) {
    fault::SegmentKey key;
    key.parent = reinterpret_cast<std::uintptr_t>(parent.get());
    return key;
  };
  auto idle = std::make_shared<const int>(1);
  auto used = std::make_shared<const int>(2);
  const std::weak_ptr<const int> idle_pin = idle;
  const std::weak_ptr<const int> used_pin = used;
  const fault::SegmentKey idle_key = key_of(idle);
  const fault::SegmentKey used_key = key_of(used);
  memo.lookup(idle_key, std::move(idle), simulate);
  memo.lookup(used_key, std::move(used), simulate);
  EXPECT_EQ(simulations, 2);

  memo.rotate();  // both entries are the previous generation now
  EXPECT_FALSE(idle_pin.expired());
  EXPECT_FALSE(used_pin.expired());
  memo.lookup(used_key, nullptr, simulate);  // carried with its pin
  EXPECT_EQ(memo.carried(), 1u);

  memo.rotate();  // the idle key sat out a whole generation: released
  EXPECT_TRUE(idle_pin.expired());
  EXPECT_FALSE(used_pin.expired());
  memo.rotate();  // and now the carried one, looked up no more
  EXPECT_TRUE(used_pin.expired());
  EXPECT_EQ(simulations, 2);

  // A released key is simulated again.
  auto again = std::make_shared<const int>(3);
  memo.lookup(key_of(again), std::move(again), simulate);
  EXPECT_EQ(simulations, 3);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.carried(), 0u);
}

TEST(SegmentMemo, CarriedFailureIsRethrown) {
  const double nominal = fault::ChargeUpSpec{}.amplitude;
  const auto blob = charged_blob();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  fault::SegmentMemo memo;
  std::string expected;
  fault::RectifierPlant first;
  first.memo = &memo;
  first.fork_from(blob, nominal);
  try {
    first.measure(nan);
  } catch (const std::exception& error) {
    expected = error.what();
  }
  EXPECT_FALSE(expected.empty());
  memo.rotate();

  fault::RectifierPlant second;
  second.memo = &memo;
  second.fork_from(blob, nominal);
  std::string carried;
  try {
    second.measure(nan);
  } catch (const std::exception& error) {
    carried = error.what();
  }
  EXPECT_EQ(carried, expected);
  EXPECT_EQ(memo.misses(), 0u);
  EXPECT_EQ(memo.carried(), 1u);
  EXPECT_EQ(second.committed(), blob.get());  // a throw commits nothing
  EXPECT_EQ(second.checkpoints, 0);
}

// --------------------------------------------------------------- bioz memo

// The magnetoelectric nominal drive at the shipped tissue (scale 1.0):
// the input most bio-impedance measures repeat.
constexpr double kBioZDrive = link::kMagnetoelectricNominal.drive_v;

TEST(BioZMemo, MemoizedPlantIsBitIdenticalToUncachedPlant) {
  // Nominal twice, a drifted tissue twice, then nominal again: two
  // distinct inputs over five measures.
  const std::vector<double> scales = {1.0, 1.0, 1.4, 1.4, 1.0};
  fault::BioZMemo memo;
  fault::BioZPlant cached;
  fault::BioZPlant reference;
  cached.memo = &memo;

  std::vector<double> vos;
  for (const double scale : scales) {
    const double vo = cached.measure(kBioZDrive, scale);
    EXPECT_TRUE(same_bits(vo, reference.measure(kBioZDrive, scale)))
        << "scale " << scale;
    EXPECT_EQ(cached.measurements, reference.measurements);
    vos.push_back(vo);
  }
  EXPECT_EQ(reference.measurements, 5);
  EXPECT_FALSE(same_bits(vos[0], vos[2]));  // drift moves the sense tap
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 3u);

  // A plant replaying the same inputs is served entirely from the memo,
  // and still counts every measure.
  fault::BioZPlant replay;
  replay.memo = &memo;
  for (std::size_t k = 0; k < scales.size(); ++k) {
    EXPECT_TRUE(same_bits(replay.measure(kBioZDrive, scales[k]), vos[k]))
        << "step " << k;
  }
  EXPECT_EQ(replay.measurements, 5);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 8u);
}

TEST(BioZMemo, ConcurrentRequestsForOneKeySimulateOnce) {
  fault::BioZMemo memo;
  constexpr int kThreads = 4;
  std::vector<fault::BioZPlant> plants(kThreads);
  std::vector<double> vos(kThreads, 0.0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    plants[t].memo = &memo;
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      vos[t] = plants[t].measure(kBioZDrive, 1.4);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kThreads - 1));
  fault::BioZPlant reference;
  const double expected = reference.measure(kBioZDrive, 1.4);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(vos[t], expected)) << "thread " << t;
    EXPECT_EQ(plants[t].measurements, 1);
  }
}

TEST(BioZMemo, FailureReachesEveryRequester) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // The uncached plant's failure is the one every requester must see.
  std::string expected;
  {
    fault::BioZPlant reference;
    try {
      reference.measure(nan, 1.0);
    } catch (const std::exception& error) {
      expected = error.what();
    }
    EXPECT_EQ(reference.measurements, 0);
  }
  EXPECT_NE(expected.find("build_tissue_ladder: amplitude must be finite"),
            std::string::npos)
      << expected;

  fault::BioZMemo memo;
  constexpr int kThreads = 3;
  std::vector<std::string> messages(kThreads);
  std::vector<fault::BioZPlant> plants(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    plants[t].memo = &memo;
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        plants[t].measure(nan, 1.0);
      } catch (const std::exception& error) {
        messages[t] = error.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(messages[t], expected) << "thread " << t;
    // A measure that throws is not counted.
    EXPECT_EQ(plants[t].measurements, 0);
  }
}

TEST(BioZMemo, RotationCarriesAnEntryWithoutSimulating) {
  fault::BioZMemo memo;
  const fault::BioZKey key{42, 7};
  int simulations = 0;
  const auto simulate = [&] {
    ++simulations;
    return 0.125;
  };
  EXPECT_EQ(memo.lookup(key, nullptr, simulate), 0.125);
  memo.rotate();
  EXPECT_EQ(memo.lookup(key, nullptr, simulate), 0.125);
  EXPECT_EQ(simulations, 1);
  EXPECT_EQ(memo.misses(), 0u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.carried(), 1u);

  // Through a real plant: the carried value is the simulated bits.
  fault::BioZMemo plant_memo;
  fault::BioZPlant before;
  before.memo = &plant_memo;
  const double vo = before.measure(kBioZDrive, 1.4);
  plant_memo.rotate();
  fault::BioZPlant after;
  after.memo = &plant_memo;
  EXPECT_TRUE(same_bits(after.measure(kBioZDrive, 1.4), vo));
  EXPECT_EQ(after.measurements, 1);
  EXPECT_EQ(plant_memo.misses(), 0u);
  EXPECT_EQ(plant_memo.carried(), 1u);
}

TEST(BioZMemo, CarriedFailureIsRethrown) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  fault::BioZMemo memo;
  fault::BioZPlant before;
  before.memo = &memo;
  std::string expected;
  try {
    before.measure(nan, 1.0);
  } catch (const std::exception& error) {
    expected = error.what();
  }
  EXPECT_FALSE(expected.empty());
  memo.rotate();
  fault::BioZPlant after;
  after.memo = &memo;
  std::string carried;
  try {
    after.measure(nan, 1.0);
  } catch (const std::exception& error) {
    carried = error.what();
  }
  EXPECT_EQ(carried, expected);
  EXPECT_EQ(after.measurements, 0);
  EXPECT_EQ(memo.misses(), 0u);
  EXPECT_EQ(memo.carried(), 1u);
}

TEST(BioZMemo, ConcurrentRequestsForOneCarriedKeyCarryOnce) {
  fault::BioZMemo memo;
  {
    fault::BioZPlant seed_plant;
    seed_plant.memo = &memo;
    seed_plant.measure(kBioZDrive, 1.4);
  }
  memo.rotate();
  constexpr int kThreads = 4;
  std::vector<fault::BioZPlant> plants(kThreads);
  std::vector<double> vos(kThreads, 0.0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    plants[t].memo = &memo;
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      vos[t] = plants[t].measure(kBioZDrive, 1.4);
    });
  }
  for (auto& thread : threads) thread.join();
  // One request copies the entry over (a hit and a carry); the other
  // three are plain hits of the new generation.
  EXPECT_EQ(memo.carried(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(memo.misses(), 0u);
  fault::BioZPlant reference;
  const double expected = reference.measure(kBioZDrive, 1.4);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(vos[t], expected)) << "thread " << t;
  }
}

// ------------------------------------------------------- service memos

// One unit of the ME bio-impedance fleet: every cohort on the
// magnetoelectric link with the tissue-ladder front end.
fleet::FleetConfig bioz_unit(std::uint64_t seed) {
  fleet::FleetConfig config;
  config.sessions = 3;
  config.exchanges = 2;
  config.seed = seed;
  for (auto& cohort : config.cohorts) {
    cohort.link = "me";
    cohort.workload = fault::Workload::kBioZ;
  }
  return config;
}

// A run sequence over one service: three ME bio-impedance units, two
// inductive lactate runs (seeds one apart), and the first unit again.
std::vector<fleet::FleetConfig> service_run_sequence() {
  std::vector<fleet::FleetConfig> configs;
  for (const std::uint64_t seed : {0xb102ull, 0xb103ull, 0xb104ull}) {
    configs.push_back(bioz_unit(seed));
  }
  auto lactate = small_config();
  lactate.sessions = 3;
  configs.push_back(lactate);
  auto lactate_next = lactate;
  lactate_next.seed += 1;
  configs.push_back(lactate_next);
  configs.push_back(configs.front());
  return configs;
}

TEST(FleetServiceMemo, SuccessiveRunsMatchFreshServices) {
  const auto configs = service_run_sequence();
  // What each config gives on a fresh service, and solo.
  std::vector<fleet::FleetResult> fresh;
  std::vector<std::vector<std::uint64_t>> solo;
  for (const auto& config : configs) {
    fleet::FleetService service(1);
    fresh.push_back(service.run(config));
    const std::size_t n = config.sessions;
    solo.push_back({fleet::fingerprint_session(
                        fleet::run_solo_session(config, 0)),
                    fleet::fingerprint_session(
                        fleet::run_solo_session(config, n - 1))});
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    fleet::FleetService service(threads);
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const auto result = service.run(configs[k]);
      const std::size_t n = configs[k].sessions;
      EXPECT_EQ(result.fingerprint, fresh[k].fingerprint)
          << "run " << k << " at " << threads << " threads";
      ASSERT_EQ(result.health.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(result.health[i].ok) << "run " << k << " session " << i;
        EXPECT_EQ(result.health[i].fingerprint, fresh[k].health[i].fingerprint)
            << "run " << k << " session " << i << " at " << threads
            << " threads";
      }
      EXPECT_EQ(fleet::fingerprint_session(result.sessions[0]), solo[k][0])
          << "run " << k << " at " << threads << " threads";
      EXPECT_EQ(fleet::fingerprint_session(result.sessions[n - 1]), solo[k][1])
          << "run " << k << " at " << threads << " threads";
    }
  }
}

TEST(FleetServiceMemo, ChargeUpCapturedOncePerSpec) {
  // Two runs of one config on one service: the first captures the
  // charge-up, the second forks the blob the service's memo holds.
  auto config = small_config();
  config.sessions = 3;
  fleet::FleetService service(2);
  const auto first = service.run(config);
  EXPECT_EQ(first.charge_captures, 1u);
  EXPECT_EQ(first.checkpoint_forks, config.sessions);
  const auto second = service.run(config);
  EXPECT_EQ(second.charge_captures, 0u);
  EXPECT_EQ(second.checkpoint_forks, config.sessions);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // A cohort on the ME link charges up at its own drive and carrier, so
  // it gets a blob of its own: one more capture, and every session still
  // matches its solo run, which captures at its cohort's spec.
  auto mixed = config;
  mixed.cohorts[1].link = "me";
  const auto third = service.run(mixed);
  EXPECT_EQ(third.charge_captures, 1u);
  EXPECT_EQ(third.checkpoint_forks, mixed.sessions);
  for (std::size_t i = 0; i < mixed.sessions; ++i) {
    EXPECT_EQ(fleet::fingerprint_session(third.sessions[i]),
              fleet::fingerprint_session(fleet::run_solo_session(mixed, i)))
        << "session " << i;
  }
}

struct DistinctInputs {
  std::uint64_t segments = 0;
  std::uint64_t measures = 0;
};

// The distinct plant inputs of one run of `config` (inductive cohorts):
// its sessions replayed through one fresh bundle of memos simulate each
// input once, from a charge-up of their own.
DistinctInputs distinct_inputs(const fleet::FleetConfig& config) {
  fault::PlantMemos replay;
  const auto blob = std::make_shared<const spice::TransientCheckpoint>(
      fault::capture_charged_checkpoint(config.charge));
  for (std::size_t i = 0; i < config.sessions; ++i) {
    fleet::SessionSpec spec;
    spec.seed = config.seed;
    spec.index = i;
    spec.exchanges = config.exchanges;
    spec.cohort = config.cohorts[i % config.cohorts.size()];
    spec.charge = config.charge;
    const bool lactate = spec.cohort.workload == fault::Workload::kLactateSpice;
    fleet::run_patient_session(spec, lactate ? blob : nullptr, nullptr, {},
                               &replay);
  }
  return {replay.segments.misses(), replay.bioz.misses()};
}

TEST(FleetServiceMemo, MissesPlusCarriedAreEachRunsDistinctInputs) {
  auto lactate = small_config();
  lactate.sessions = 3;
  auto lactate_next = lactate;
  lactate_next.seed += 1;
  const std::vector<fleet::FleetConfig> configs = {
      bioz_unit(0xb102ull), bioz_unit(0xb103ull), lactate, lactate_next,
      bioz_unit(0xb102ull)};
  std::vector<fleet::FleetResult> serial;
  {
    fleet::FleetService service(1);
    for (const auto& config : configs) serial.push_back(service.run(config));
  }
  fleet::FleetService service(4);
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const auto pooled = service.run(configs[k]);
    const auto& run = serial[k];
    EXPECT_EQ(run.fingerprint, pooled.fingerprint) << "run " << k;
    EXPECT_EQ(run.segment_hits, pooled.segment_hits) << "run " << k;
    EXPECT_EQ(run.segment_misses, pooled.segment_misses) << "run " << k;
    EXPECT_EQ(run.segment_carried, pooled.segment_carried) << "run " << k;
    EXPECT_EQ(run.bioz_hits, pooled.bioz_hits) << "run " << k;
    EXPECT_EQ(run.bioz_misses, pooled.bioz_misses) << "run " << k;
    EXPECT_EQ(run.bioz_carried, pooled.bioz_carried) << "run " << k;
    const DistinctInputs distinct = distinct_inputs(configs[k]);
    EXPECT_EQ(run.segment_misses + run.segment_carried, distinct.segments)
        << "run " << k;
    EXPECT_EQ(run.bioz_misses + run.bioz_carried, distinct.measures)
        << "run " << k;
    EXPECT_LE(run.segment_carried, run.segment_hits);
    EXPECT_LE(run.bioz_carried, run.bioz_hits);
  }
  // The first run has nothing to carry from; a unit after a unit, or a
  // lactate run after a lactate run, carries the inputs they share.
  EXPECT_EQ(serial[0].bioz_carried, 0u);
  EXPECT_GT(serial[1].bioz_carried, 0u);
  EXPECT_EQ(serial[2].segment_carried, 0u);
  EXPECT_GT(serial[3].segment_carried, 0u);
}

TEST(Fleet, RootMetricsInvariantToThreadCount) {
  // Every root counter and gauge a fleet run publishes is a fact about
  // the fleet, not about the thread that wrote last: one config at 1 and
  // at 4 threads reads the same, bar timing and scheduling names.
  const auto timing_or_scheduling = [](const std::string& name) {
    return name.starts_with("prof.") || name.ends_with("_seconds") ||
           name.ends_with("_per_second") || name.starts_with("exec.") ||
           name == "fleet.threads";
  };
  auto config = small_config();
  config.sessions = 24;
  auto& root = obs::MetricsRegistry::instance();
  const auto root_readings = [&](std::size_t threads) {
    root.reset();
    config.threads = threads;
    fleet::run_fleet(config);
    std::map<std::string, double> out;  // "<type> <name>" -> value
    for (const auto& m : root.snapshot()) {
      if (m.type == "histogram" || timing_or_scheduling(m.name)) continue;
      out[m.type + " " + m.name] = m.value;
    }
    return out;
  };
  const auto serial = root_readings(1);
  const auto pooled = root_readings(4);
  EXPECT_EQ(serial.size(), pooled.size());
  for (const auto& [key, value] : serial) {
    const auto it = pooled.find(key);
    ASSERT_NE(it, pooled.end()) << key;
    EXPECT_EQ(it->second, value) << key;
  }
  if constexpr (obs::kEnabled) {
    EXPECT_GT(serial.at("counter spice.transient.runs"), 0.0);
    EXPECT_GT(serial.at("counter session.exchanges"), 0.0);
  }
}

TEST(Fleet, CohortAssignmentRoundRobin) {
  auto config = small_config();
  config.sessions = 5;  // 3 cohorts -> 2/2/1 split
  const auto result = fleet::run_fleet(config);
  ASSERT_EQ(result.cohorts.size(), 3u);
  EXPECT_EQ(result.cohorts[0].sessions, 2u);
  EXPECT_EQ(result.cohorts[1].sessions, 2u);
  EXPECT_EQ(result.cohorts[2].sessions, 1u);
  long long exchanges = 0;
  long long lost = 0;
  for (const auto& cohort : result.cohorts) {
    exchanges += cohort.exchanges;
    lost += cohort.lost;
    if (cohort.exchanges > 0) {
      EXPECT_DOUBLE_EQ(cohort.lost_rate,
                       static_cast<double>(cohort.lost) /
                           static_cast<double>(cohort.exchanges));
    }
  }
  EXPECT_EQ(exchanges, result.total_exchanges);
  EXPECT_EQ(lost, result.lost_measurements);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    EXPECT_EQ(result.sessions[i].cohort,
              config.cohorts[i % config.cohorts.size()].name);
  }
}

TEST(Fleet, ExactPercentileInterpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fleet::exact_percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet::exact_percentile(sorted, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(fleet::exact_percentile(sorted, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(fleet::exact_percentile(sorted, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(fleet::exact_percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(fleet::exact_percentile({7.0}, 95.0), 7.0);
}

TEST(Fleet, SoakHorizonDrivesExchangeCount) {
  fleet::FleetConfig config;
  config.exchanges = 4;
  EXPECT_EQ(fleet::effective_exchanges(config), 4);
  config.soak_seconds = 1.0;  // cadence 0.25 s -> 4 exchanges
  EXPECT_EQ(fleet::effective_exchanges(config), 4);
  config.soak_seconds = 1.1;
  EXPECT_EQ(fleet::effective_exchanges(config), 5);
}

TEST(Fleet, InvalidConfigsThrow) {
  fleet::FleetConfig config;
  config.sessions = 0;
  EXPECT_THROW(fleet::run_fleet(config), std::invalid_argument);
  config = {};
  config.cohorts.clear();
  EXPECT_THROW(fleet::run_fleet(config), std::invalid_argument);
  config = {};
  config.exchanges = 0;
  EXPECT_THROW(fleet::run_fleet(config), std::invalid_argument);
  // A soak horizon must be finite, non-negative, and give an exchange
  // count that fits an int; all are rejected before any session runs.
  for (const double soak :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -3.0, -0.5, 1e12,
        std::numeric_limits<double>::max()}) {
    config = {};
    config.soak_seconds = soak;
    EXPECT_THROW(fleet::run_fleet(config), std::invalid_argument)
        << "soak " << soak;
    EXPECT_THROW(fleet::run_solo_session(config, 0), std::invalid_argument)
        << "soak " << soak;
  }
}

// ------------------------------------------------------------- supervision

// Chaos config used across the supervision tests: with this seed the
// 0.2 rate dooms exactly sessions {3, 4, 5} — a deterministic half/half
// split of the 6-session fleet.
fleet::FleetConfig chaos_config() {
  auto config = small_config();
  config.supervise.chaos.throw_rate = 0.2;
  return config;
}

std::size_t doomed_count(const fleet::FleetConfig& config) {
  std::size_t doomed = 0;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const auto plan =
        fleet::chaos_plan(config.supervise.chaos, config.seed, i,
                          fleet::effective_exchanges(config));
    if (plan.action != fleet::ChaosAction::kNone) ++doomed;
  }
  return doomed;
}

TEST(FleetSupervisor, ClassifiesKnownFailureMessages) {
  using fleet::FailureCode;
  // The solver's own singular-pivot error, with its own text.
  linalg::SparseSolver<double> solver(2);
  solver.begin_assembly();
  solver.add(0, 0, 1.0);
  solver.add(0, 1, 1.0);
  solver.add(1, 0, 0.0);
  solver.add(1, 1, 0.0);
  try {
    solver.factor();
    FAIL() << "singular matrix factored";
  } catch (const linalg::SingularMatrixError& error) {
    EXPECT_EQ(fleet::classify_failure(error), FailureCode::kSolverSingular)
        << error.what();
  }
  EXPECT_EQ(fleet::classify_failure(spice::ConvergenceError(
                "run_transient: DC operating point failed to converge")),
            FailureCode::kNewtonNonconverge);
  EXPECT_EQ(fleet::classify_failure(spice::ConvergenceError(
                "run_transient: step-count safety limit exceeded")),
            FailureCode::kNewtonNonconverge);
  // Classification is by type: the message text is never consulted.
  EXPECT_EQ(fleet::classify_failure(std::runtime_error(
                "linalg: matrix is singular at row 3")),
            FailureCode::kUnknown);
  EXPECT_EQ(fleet::classify_failure(std::runtime_error(
                "run_transient: Newton failed below minimum step")),
            FailureCode::kUnknown);
  EXPECT_EQ(fleet::classify_failure(
                std::runtime_error("transactor: retry budget exhausted")),
            FailureCode::kUnknown);
  EXPECT_EQ(fleet::classify_failure(std::invalid_argument("bad spec")),
            FailureCode::kValidation);
  EXPECT_EQ(fleet::classify_failure(exec::TaskCancelled()),
            FailureCode::kDeadline);
  EXPECT_EQ(fleet::classify_failure(
                fleet::SessionFailure(FailureCode::kChaos, "injected")),
            FailureCode::kChaos);
  EXPECT_EQ(fleet::classify_failure(std::runtime_error("meteor strike")),
            FailureCode::kUnknown);
  // The code <-> name mapping is a wire format: it must round-trip.
  for (int i = 0; i < fleet::kFailureCodeCount; ++i) {
    const auto code = static_cast<FailureCode>(i);
    EXPECT_EQ(fleet::failure_code_from_name(fleet::failure_code_name(code)),
              code);
  }
}

TEST(FleetSupervisor, ChaosPlanIsDeterministic) {
  const auto config = chaos_config();
  const std::size_t doomed = doomed_count(config);
  // The 0.5 rate must produce a mix — all-doomed or all-spared would
  // make the containment tests vacuous.
  ASSERT_GT(doomed, 0u);
  ASSERT_LT(doomed, config.sessions);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const auto a = fleet::chaos_plan(config.supervise.chaos, config.seed, i,
                                     fleet::effective_exchanges(config));
    const auto b = fleet::chaos_plan(config.supervise.chaos, config.seed, i,
                                     fleet::effective_exchanges(config));
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.at_exchange, b.at_exchange);
    if (a.action != fleet::ChaosAction::kNone) {
      EXPECT_GE(a.at_exchange, 0);
      EXPECT_LT(a.at_exchange, fleet::effective_exchanges(config));
    }
  }
}

TEST(FleetSupervisor, ChaosContainedAndHealthySiblingsBitIdentical) {
  // Persistent chaos (more doomed attempts than retries): the doomed
  // sessions quarantine, the fleet completes, and every spared session
  // is bit-identical to the same session in a no-chaos run.
  auto config = chaos_config();
  config.supervise.chaos.fail_attempts = 99;
  config.supervise.max_retries = 1;
  const auto chaotic = fleet::run_fleet(config);

  const auto clean = fleet::run_fleet(small_config());

  const auto doomed = doomed_count(config);
  EXPECT_EQ(static_cast<std::size_t>(chaotic.failed), doomed);
  EXPECT_EQ(chaotic.quarantined, chaotic.failed);
  EXPECT_EQ(chaotic.failures_by_code.at("chaos"),
            static_cast<long long>(doomed));
  long long cohort_failed = 0;
  for (const auto& c : chaotic.cohorts) {
    cohort_failed += c.failed;
    if (c.sessions > 0) {
      EXPECT_DOUBLE_EQ(c.failure_rate, static_cast<double>(c.failed) /
                                           static_cast<double>(c.sessions));
    }
  }
  EXPECT_EQ(cohort_failed, chaotic.failed);

  ASSERT_EQ(chaotic.health.size(), config.sessions);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const auto& h = chaotic.health[i];
    EXPECT_EQ(h.index, i);
    if (h.ok) {
      // Spared: bit-identical to the clean run's same slot.
      EXPECT_EQ(fleet::fingerprint_session(chaotic.sessions[i]),
                fleet::fingerprint_session(clean.sessions[i]))
          << "healthy session " << i << " perturbed by sibling chaos";
      EXPECT_EQ(h.fingerprint, fleet::fingerprint_session(clean.sessions[i]));
    } else {
      EXPECT_EQ(h.code, fleet::FailureCode::kChaos);
      EXPECT_TRUE(h.quarantined);
      EXPECT_EQ(h.attempts, 2);  // initial try + 1 retry, all doomed
      // The failed slot is zeroed so aggregates never see phantom data.
      EXPECT_EQ(chaotic.sessions[i].exchanges, 0);
      EXPECT_EQ(h.fingerprint, fleet::failure_fingerprint(h));
    }
  }
}

TEST(FleetSupervisor, ChaosFingerprintInvariantToThreadCount) {
  auto config = chaos_config();
  config.supervise.chaos.fail_attempts = 99;
  config.supervise.max_retries = 1;
  config.threads = 1;
  const auto serial = fleet::run_fleet(config);
  config.threads = 3;
  const auto pooled = fleet::run_fleet(config);
  EXPECT_GT(serial.failed, 0);
  EXPECT_EQ(serial.fingerprint, pooled.fingerprint);
  EXPECT_EQ(serial.failed, pooled.failed);
  EXPECT_EQ(serial.quarantined, pooled.quarantined);
}

TEST(FleetSupervisor, RetriedSessionBitIdenticalToCleanRun) {
  // One doomed attempt, two retries granted: every chaos-picked session
  // fails once, then re-runs clean with its exact original seed — the
  // whole fleet must come out bit-identical to a run with no chaos.
  auto config = chaos_config();
  config.supervise.chaos.fail_attempts = 1;
  config.supervise.max_retries = 2;
  const auto retried = fleet::run_fleet(config);
  const auto clean = fleet::run_fleet(small_config());

  EXPECT_EQ(retried.failed, 0);
  EXPECT_EQ(retried.quarantined, 0);
  EXPECT_GT(retried.retried, 0);
  EXPECT_EQ(retried.fingerprint, clean.fingerprint);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    EXPECT_EQ(fleet::fingerprint_session(retried.sessions[i]),
              fleet::fingerprint_session(clean.sessions[i]));
    // A retried session is also bit-identical to a clean *solo* run —
    // the retry rebuilt its RNG lanes and plant from scratch.
    if (retried.health[i].attempts > 1) {
      const auto solo = fleet::run_solo_session(small_config(), i);
      EXPECT_EQ(fleet::fingerprint_session(retried.sessions[i]),
                fleet::fingerprint_session(solo));
    }
  }
}

TEST(FleetSupervisor, RetriedSessionPublishesOnlyTheCompletedAttempt) {
  // The supervisor hands one scoped registry to every attempt. An
  // attempt that chaos abandons mid-session must leave no telemetry
  // behind: the registry shows only the attempt that completed.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  fleet::SupervisorPolicy policy;
  policy.chaos.throw_rate = 1.0;
  policy.chaos.fail_attempts = 1;
  policy.max_retries = 1;

  fleet::SessionSpec spec;
  spec.seed = 0x5eedf1ee7ull;
  spec.exchanges = 4;
  spec.cohort.workload = fault::Workload::kLactateBehavioural;
  // The first session whose doomed attempt runs at least one exchange
  // before it throws.
  while (fleet::chaos_plan(policy.chaos, spec.seed, spec.index,
                           spec.exchanges)
             .at_exchange < 1) {
    ++spec.index;
  }

  obs::MetricsRegistry scoped;
  const auto supervised =
      fleet::run_supervised_session(spec, nullptr, &scoped, policy);
  EXPECT_TRUE(supervised.health.ok) << supervised.health.message;
  EXPECT_EQ(supervised.health.attempts, 2);
  EXPECT_EQ(scoped.histogram("fleet.session.exchange_latency_s").count(),
            static_cast<std::uint64_t>(spec.exchanges));
}

TEST(FleetSupervisor, WatchdogDeadlineContainsStalledSession) {
  auto config = small_config();
  config.sessions = 2;
  config.exchanges = 1;
  config.supervise.chaos.stall_rate = 1.0;  // every session stalls
  config.supervise.session_deadline_s = 0.1;  // watchdog fires first
  config.supervise.max_retries = 0;
  const auto result = fleet::run_fleet(config);
  EXPECT_EQ(result.failed, 2);
  EXPECT_EQ(result.quarantined, 0);  // no retries granted -> failed, not
                                     // quarantined
  for (const auto& h : result.health) {
    EXPECT_FALSE(h.ok);
    EXPECT_EQ(h.code, fleet::FailureCode::kDeadline);
  }
  EXPECT_EQ(result.failures_by_code.at("deadline"), 2);
}

TEST(FleetSupervisor, JournalRoundTripAndResumeReproducesFingerprint) {
  const std::string path =
      ::testing::TempDir() + "/ironic_fleet_journal_test.jsonl";
  std::remove(path.c_str());

  auto config = chaos_config();
  config.supervise.chaos.fail_attempts = 99;
  config.supervise.max_retries = 1;
  config.supervise.journal_path = path;
  const auto full = fleet::run_fleet(config);
  EXPECT_GT(full.failed, 0);
  EXPECT_EQ(full.resumed, 0);

  // The journal replays to exactly the run's outcomes.
  const auto state = fleet::RunJournal::load(path);
  ASSERT_TRUE(state.valid) << state.error;
  EXPECT_EQ(state.seed, config.seed);
  EXPECT_EQ(state.sessions, config.sessions);
  ASSERT_EQ(state.completed.size(), config.sessions);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    EXPECT_EQ(state.completed.at(i).health.fingerprint,
              full.health[i].fingerprint);
  }

  // Simulate a mid-run kill: keep the header + the first three session
  // lines, then a torn partial line (killed mid-write).
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << "\n";
    out << R"({"event":"session","session":5,"co)";  // torn, no newline
  }
  const auto torn = fleet::RunJournal::load(path);
  ASSERT_TRUE(torn.valid);
  EXPECT_EQ(torn.completed.size(), 3u);  // torn line ignored

  config.supervise.resume = true;
  const auto resumed = fleet::run_fleet(config);
  EXPECT_EQ(resumed.fingerprint, full.fingerprint);
  EXPECT_EQ(resumed.resumed, 3);
  EXPECT_EQ(resumed.failed, full.failed);
  EXPECT_EQ(resumed.quarantined, full.quarantined);

  // After the resumed run the journal is whole again: a second resume
  // replays everything.
  const auto replayed = fleet::run_fleet(config);
  EXPECT_EQ(replayed.fingerprint, full.fingerprint);
  EXPECT_EQ(static_cast<std::size_t>(replayed.resumed), config.sessions);
  std::remove(path.c_str());
}

TEST(FleetSupervisor, JournalIsNotTelemetry) {
  // The journal writes its own file: a journaled run moves no
  // obs.telemetry.* counter, and the obs runtime kill switch, which
  // silences telemetry, leaves the journal complete.
  const std::string path =
      ::testing::TempDir() + "/ironic_fleet_journal_quiet.jsonl";
  auto config = small_config();
  config.sessions = 4;
  config.supervise.journal_path = path;
  auto& root = obs::MetricsRegistry::instance();
  for (const bool obs_on : {true, false}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    std::remove(path.c_str());
    root.reset();
    obs::set_runtime_enabled(obs_on);
    const auto result = fleet::run_fleet(config);
    obs::set_runtime_enabled(true);
    for (const char* name :
         {"obs.telemetry.emitted", "obs.telemetry.dropped",
          "obs.telemetry.written", "obs.telemetry.flushes"}) {
      EXPECT_EQ(root.counter(name).value(), 0u) << name;
    }
    const auto state = fleet::RunJournal::load(path);
    ASSERT_TRUE(state.valid) << state.error;
    EXPECT_EQ(state.sessions, config.sessions);
    ASSERT_EQ(state.completed.size(), config.sessions);
    for (std::size_t i = 0; i < config.sessions; ++i) {
      EXPECT_EQ(state.completed.at(i).health.fingerprint,
                result.health[i].fingerprint)
          << "session " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(FleetSupervisor, ResumeRejectsMismatchedJournalHeader) {
  const std::string path =
      ::testing::TempDir() + "/ironic_fleet_journal_mismatch.jsonl";
  std::remove(path.c_str());
  auto config = small_config();
  config.supervise.journal_path = path;
  (void)fleet::run_fleet(config);

  config.supervise.resume = true;
  config.seed ^= 1;  // different run identity
  EXPECT_THROW(fleet::run_fleet(config), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Fleet, HashedStreamsGiveCohortsIndependentSchedules) {
  // Two sessions in the same cohort (indices 0 and 3 with 3 cohorts)
  // must draw different stochastic schedules — shared streams would
  // collapse the fleet into N copies of one patient.
  fleet::FleetConfig config = small_config();
  fleet::SessionSpec s0;
  s0.seed = config.seed;
  s0.index = 0;
  s0.exchanges = 8;
  s0.cohort = config.cohorts[0];
  fleet::SessionSpec s3 = s0;
  s3.index = 3;
  const auto sched0 = fleet::make_session_schedule(s0);
  const auto sched3 = fleet::make_session_schedule(s3);
  // Identical inputs reproduce bit-identically...
  const auto sched0_again = fleet::make_session_schedule(s0);
  ASSERT_EQ(sched0.events().size(), sched0_again.events().size());
  for (std::size_t i = 0; i < sched0.events().size(); ++i) {
    EXPECT_EQ(sched0.events()[i].start, sched0_again.events()[i].start);
    EXPECT_EQ(sched0.events()[i].magnitude, sched0_again.events()[i].magnitude);
  }
  // ...while distinct indices diverge.
  bool differs = sched0.events().size() != sched3.events().size();
  for (std::size_t i = 0; !differs && i < sched0.events().size(); ++i) {
    differs = sched0.events()[i].start != sched3.events()[i].start ||
              sched0.events()[i].magnitude != sched3.events()[i].magnitude;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
