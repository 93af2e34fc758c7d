// util::Rng stream splitting: the xoshiro256++ jump machinery that the
// exec subsystem's determinism contract stands on.
//
// The golden vectors below were produced by an independent transcription
// of Blackman & Vigna's reference C implementation (prng.di.unimi.it),
// seeded through the same splitmix64 expansion Rng uses — they pin both
// the base generator and the published jump/long-jump polynomials.
#include "src/util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using ironic::util::Rng;

namespace {

struct JumpVector {
  std::uint64_t seed;
  std::uint64_t first4[4];   // first draws, no jump
  std::uint64_t jump4[4];    // first draws after one jump()
  std::uint64_t jump2x4[4];  // first draws after two jump()s
  std::uint64_t ljump4[4];   // first draws after one long_jump()
};

constexpr JumpVector kVectors[] = {
    {0x1234abcd5678ef00ull,  // Rng's default seed
     {0x6f9f2714d925933eull, 0xef10f2206762941cull, 0x07b64ea6a6e3a695ull,
      0x7fd6076f449cc026ull},
     {0xa2bb93116b86ba06ull, 0x673a87779ee17283ull, 0x1802251cd65af397ull,
      0xf76d5ca34cd149e6ull},
     {0x4b7fda00234e990bull, 0xf05f9d47b74ba961ull, 0x513705a452c997f1ull,
      0xa96e7e1ad32861abull},
     {0xf610b26c76e103b2ull, 0x548bd68fd5c069d0ull, 0xd4957acefcdb119aull,
      0xff3b71bbc1ba3cf4ull}},
    {1ull,
     {0xcfc5d07f6f03c29bull, 0xbf424132963fe08dull, 0x19a37d5757aaf520ull,
      0xbf08119f05cd56d6ull},
     {0xdafd92f1adffc5b9ull, 0x89d5ed6828f5becfull, 0xc81a7b85673e9dacull,
      0xe3ed98a07ef5a746ull},
     {0xcf14ec0cd23320f2ull, 0x0d996ecdd4a89305ull, 0x9a094a1d92763d30ull,
      0x998f46b945e5c6f8ull},
     {0xc6e0f3d2b09d8eecull, 0x55ad95eef7a40e42ull, 0x8cc0e5594cb97ab0ull,
      0x708019a0cb2b42e8ull}},
    {0xF16A11ull,  // the tolerance Monte Carlo's seed
     {0x73b35ae37896fb4eull, 0x427a08e87ee55684ull, 0xf2ff9fa21d1d8251ull,
      0x5d2f882fd70aeea9ull},
     {0xbdc5cf23685bd3a2ull, 0x832518e8657aff29ull, 0x745ea70c139fb4cfull,
      0xf9b6541898ca8ad4ull},
     {0xda5e7ecbc678138full, 0x1128c0602a149b41ull, 0xf96c4580133765d3ull,
      0x0cff492f016814e9ull},
     {0xc22b4d99b44c16eeull, 0x67be7f599c00dd02ull, 0xa613032f248f041bull,
      0xf6d7faf1a4297374ull}},
    {0x5eed0123456789abull,  // exec::SweepOptions' default seed
     {0xf83bf36d4f0eb1e0ull, 0xe10323c2e834403eull, 0xbd553da5c0a6b32eull,
      0x7a1df8a490011bb4ull},
     {0xaa6403d89e849419ull, 0xdf1db05b3ef17990ull, 0xd1b211fae48bbcf7ull,
      0xd4747d3d5a141141ull},
     {0xb5c380a10c71e0f0ull, 0xda0ed5807eec1158ull, 0xaa544314c1228aa3ull,
      0x6c97c58d465599feull},
     {0xe40f198fcf4ca9f3ull, 0x910126283084da2aull, 0x0ac6181d3a6d654aull,
      0x9f2f8ec3e614661cull}},
};

TEST(RngStream, BaseGeneratorMatchesReference) {
  for (const auto& v : kVectors) {
    Rng rng(v.seed);
    for (const std::uint64_t expected : v.first4)
      EXPECT_EQ(rng.next_u64(), expected) << "seed " << v.seed;
  }
}

TEST(RngStream, JumpMatchesReferencePolynomial) {
  for (const auto& v : kVectors) {
    Rng rng(v.seed);
    rng.jump();
    for (const std::uint64_t expected : v.jump4)
      EXPECT_EQ(rng.next_u64(), expected) << "seed " << v.seed;
  }
}

TEST(RngStream, DoubleJumpMatchesReference) {
  for (const auto& v : kVectors) {
    Rng rng(v.seed);
    rng.jump();
    rng.jump();
    for (const std::uint64_t expected : v.jump2x4)
      EXPECT_EQ(rng.next_u64(), expected) << "seed " << v.seed;
  }
}

TEST(RngStream, LongJumpMatchesReferencePolynomial) {
  for (const auto& v : kVectors) {
    Rng rng(v.seed);
    rng.long_jump();
    for (const std::uint64_t expected : v.ljump4)
      EXPECT_EQ(rng.next_u64(), expected) << "seed " << v.seed;
  }
}

TEST(RngStream, JumpAfterDrawingEqualsJumpThenCatchUp) {
  // jump() commutes with drawing: advancing k draws then jumping lands at
  // the same stream position as jumping then advancing k draws.
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 7; ++i) a.next_u64();
  a.jump();
  b.jump();
  for (int i = 0; i < 7; ++i) b.next_u64();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, SplitChildIsParentJumpedIPlusOneTimes) {
  const Rng parent(99);
  auto streams = Rng(99).split(4);
  ASSERT_EQ(streams.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    Rng expected = parent;
    for (std::size_t j = 0; j <= i; ++j) expected.jump();
    for (int k = 0; k < 8; ++k)
      EXPECT_EQ(streams[i].next_u64(), expected.next_u64())
          << "stream " << i << " draw " << k;
  }
}

TEST(RngStream, SplitLeavesParentUntouched) {
  Rng parent(7);
  Rng control(7);
  (void)parent.split(16);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(parent.next_u64(), control.next_u64());
}

TEST(RngStream, StreamFactoryMatchesSplit) {
  auto streams = Rng(0xBEEF).split(5);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Rng s = Rng::stream(0xBEEF, i);
    for (int k = 0; k < 8; ++k) EXPECT_EQ(s.next_u64(), streams[i].next_u64());
  }
}

// Indices around the powers of two the jump-matrix table is built from,
// and the stream offsets the fault campaigns derive (1000 + i, 2000 + i).
constexpr std::uint64_t kStreamIndices[] = {0, 1, 2, 63, 64, 999, 1000, 2000, 4097};

TEST(RngStream, StreamEqualsSequentialJumpsBitForBit) {
  // stream() applies its index + 1 jumps as products with powers of the
  // jump matrix; every draw must equal jumping one at a time.
  for (const auto& v : kVectors) {
    Rng cursor(v.seed);
    std::uint64_t jumps = 0;
    for (const std::uint64_t index : kStreamIndices) {
      for (; jumps <= index; ++jumps) cursor.jump();
      Rng expected = cursor;
      Rng got = Rng::stream(v.seed, index);
      for (int k = 0; k < 8; ++k)
        EXPECT_EQ(got.next_u64(), expected.next_u64())
            << "seed " << v.seed << " index " << index << " draw " << k;
    }
  }
}

TEST(RngStream, ConcurrentFirstStreamCallsAgree) {
  // The jump-matrix powers are built on the first stream() call (run
  // alone, as ctest runs each test, this is that call). Threads that make
  // it at once, asking for different table depths, must all get the
  // sequential answer.
  const std::uint64_t seed = kVectors[1].seed;
  std::vector<std::uint64_t> expected;
  {
    Rng cursor(seed);
    std::uint64_t jumps = 0;
    for (const std::uint64_t index : kStreamIndices) {
      for (; jumps <= index; ++jumps) cursor.jump();
      expected.push_back(Rng(cursor).next_u64());
    }
  }
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIndices = std::size(kStreamIndices);
  std::vector<std::vector<std::uint64_t>> got(kThreads, std::vector<std::uint64_t>(kIndices));
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different index, so the first calls race
      // on tables of different depths.
      for (std::size_t i = 0; i < kIndices; ++i) {
        const std::size_t k = (kIndices - 1 - i + t) % kIndices;
        got[t][k] = Rng::stream(seed, kStreamIndices[k]).next_u64();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

TEST(RngStream, JumpDiscardsCachedBoxMullerHalf) {
  // `dirty` draws ONE normal (two u64s consumed, the sine half cached);
  // `clean` draws TWO (same two u64s consumed, cache drained). Both sit
  // at the same stream position, differing only in cache occupancy, so
  // after a jump their normal streams must coincide — a stale cached
  // half leaking across the jump would desynchronize them.
  Rng dirty(1234);
  (void)dirty.normal();
  Rng clean(1234);
  (void)clean.normal();
  (void)clean.normal();
  dirty.jump();
  clean.jump();
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(dirty.normal(), clean.normal());
}

TEST(RngStream, StreamsAreDistinctAndWellDistributed) {
  // Independence smoke test: 8 streams x 1000 draws — no collisions at
  // all (64-bit draws; any collision would be astronomically unlikely for
  // non-overlapping streams), and each stream's uniform() mean is near
  // 0.5 (a shifted/correlated stream family would show up here first).
  constexpr int kStreams = 8;
  constexpr int kDraws = 1000;
  auto streams = Rng(2024).split(kStreams);
  std::set<std::uint64_t> seen;
  for (auto& s : streams) {
    Rng copy = s;
    for (int i = 0; i < kDraws; ++i) seen.insert(copy.next_u64());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kStreams * kDraws));
  for (auto& s : streams) {
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) sum += s.uniform();
    const double mean = sum / kDraws;
    EXPECT_NEAR(mean, 0.5, 0.05);
  }
}

TEST(RngStream, SplitZeroIsEmpty) {
  EXPECT_TRUE(Rng(1).split(0).empty());
}

TEST(RngStream, HashedStreamIsReproducibleAndKeyed) {
  // O(1) keyed derivation for fleet-scale session counts (stream(seed,
  // index) costs O(log index) jump-matrix products). Same (seed, index)
  // must reproduce bitwise; any change to
  // either key must yield an unrelated stream.
  Rng a = Rng::hashed_stream(0xFEEDull, 12345);
  Rng b = Rng::hashed_stream(0xFEEDull, 12345);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  // 64 indices under one seed plus 64 seeds at one index: 128 streams,
  // 64 draws each, zero collisions (64-bit draws — any collision means
  // correlated streams, not chance).
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 64; ++index) {
    Rng s = Rng::hashed_stream(0xFEEDull, index);
    for (int k = 0; k < 64; ++k) seen.insert(s.next_u64());
  }
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng s = Rng::hashed_stream(seed, 7);
    for (int k = 0; k < 64; ++k) seen.insert(s.next_u64());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(128 * 64));

  // Adjacent indices — the common fleet pattern — are as unrelated as
  // distant ones: the uniform mean stays centred for every lane.
  for (std::uint64_t index = 100; index < 104; ++index) {
    Rng s = Rng::hashed_stream(42, index);
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) sum += s.uniform();
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
  }
}

}  // namespace
