// Refactor-neutrality gate for the LinkPhy extraction: backend #1
// (inductive ASK/LSK) must reproduce the pre-refactor pipeline
// *bit-for-bit*. The fingerprints below were captured on the commit
// immediately before src/link/ existed — same seeds, same scenario and
// exchange counts — and the campaign/fleet fingerprints fold every
// deterministic result field, so a single double differing anywhere in
// power, BER, drive compensation, RNG consumption, or injector call
// order fails these pins. Run at 1 and 4 threads so the neutrality and
// thread-invariance contracts are checked together.
//
// The two new workloads get their own pins in the same spirit: not
// values carried over from history, but this-tree values asserted
// thread-invariant (and re-pinned deliberately whenever the physics is
// retuned — the test failing is the review speed bump).
//
// NOTE: like the historical fingerprints these fold libm outputs
// (erfc/exp/pow), so the pins hold per toolchain; CI re-derives its own
// neutrality diff from a t1-vs-t4 run rather than trusting these exact
// constants across images.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/fault/campaign.hpp"
#include "src/fleet/fleet.hpp"

namespace {

using namespace ironic;

std::uint64_t campaign_fp(const std::string& name, std::size_t threads) {
  fault::CampaignConfig config;
  config.name = name;
  config.threads = threads;
  return fault::run_campaign(config).fingerprint;
}

// Pre-refactor pins (seed 0x1badc0de, 3 scenarios x 10 exchanges).
constexpr std::uint64_t kAskBurstPin = 0xcdcfe3682f5d87dbULL;
constexpr std::uint64_t kStochasticPin = 0x2418a5dbe19f9737ULL;
constexpr std::uint64_t kBrownoutPin = 0xad13aac78bc708cfULL;

TEST(LinkNeutrality, AskBurstCampaignIsBitIdenticalToPreRefactor) {
  EXPECT_EQ(campaign_fp("ask_burst_coupling_drop", 1), kAskBurstPin);
  EXPECT_EQ(campaign_fp("ask_burst_coupling_drop", 4), kAskBurstPin);
}

TEST(LinkNeutrality, StochasticSoakIsBitIdenticalToPreRefactor) {
  EXPECT_EQ(campaign_fp("stochastic_soak", 1), kStochasticPin);
  EXPECT_EQ(campaign_fp("stochastic_soak", 4), kStochasticPin);
}

TEST(LinkNeutrality, BrownoutSheddingIsBitIdenticalToPreRefactor) {
  EXPECT_EQ(campaign_fp("brownout_shedding", 1), kBrownoutPin);
  EXPECT_EQ(campaign_fp("brownout_shedding", 4), kBrownoutPin);
}

// The fleet smoke from the pre-refactor tree: 200 sessions x 2
// exchanges, seed 0xf1ee70001, default (all-inductive) cohorts.
TEST(LinkNeutrality, FleetSmokeIsBitIdenticalToPreRefactor) {
  constexpr std::uint64_t kFleetPin = 0xd6d3eb428265b127ULL;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    fleet::FleetConfig config;
    config.sessions = 200;
    config.exchanges = 2;
    config.seed = 0xf1ee70001ULL;
    config.threads = threads;
    EXPECT_EQ(fleet::run_fleet(config).fingerprint, kFleetPin)
        << "threads=" << threads;
  }
}

// The new workloads: deterministic and thread-count invariant, pinned
// to the values this tree produced when the physics was tuned.
TEST(LinkNeutrality, MeBackscatterSoakIsPinnedAndThreadInvariant) {
  constexpr std::uint64_t kMePin = 0xb61c1e7eb2bc32abULL;
  EXPECT_EQ(campaign_fp("me_backscatter_soak", 1), kMePin);
  EXPECT_EQ(campaign_fp("me_backscatter_soak", 4), kMePin);
}

TEST(LinkNeutrality, BioZTissueDriftIsPinnedAndThreadInvariant) {
  constexpr std::uint64_t kBioZPin = 0x237fb5de02291363ULL;
  EXPECT_EQ(campaign_fp("bioz_tissue_drift", 1), kBioZPin);
  EXPECT_EQ(campaign_fp("bioz_tissue_drift", 4), kBioZPin);
}

// The bio-impedance fleet on the magnetoelectric link, what
// `fleet_runner --link me --workload bioz --sessions 60 --exchanges 2`
// runs: every measurement is a linear tissue-ladder transient, so this
// pins the engine's linear path end to end.
TEST(LinkNeutrality, MeBioZFleetIsPinnedAndThreadInvariant) {
  constexpr std::uint64_t kMeBioZPin = 0xa70b3d838406db0bULL;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    fleet::FleetConfig config;
    config.sessions = 60;
    config.exchanges = 2;
    config.threads = threads;
    for (auto& cohort : config.cohorts) {
      cohort.link = "me";
      cohort.workload = fault::Workload::kBioZ;
    }
    EXPECT_EQ(fleet::run_fleet(config).fingerprint, kMeBioZPin)
        << "threads=" << threads;
  }
}

}  // namespace
