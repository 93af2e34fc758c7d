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

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/fault/campaign.hpp"
#include "src/fleet/fleet.hpp"

namespace {

using namespace ironic;

std::uint64_t campaign_fp(const std::string& name, std::size_t threads,
                          const std::string& link = "inductive") {
  fault::CampaignConfig config;
  config.name = name;
  config.threads = threads;
  config.link = link;
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

// Campaigns that run on config.link, on the magnetoelectric link: what
// `fault_runner --link me C` runs. Each row drives the shared patient
// pipeline through a different front end (rectifier transient,
// behavioural soak, bio-impedance ladder) over the PWM backscatter
// uplink.
TEST(LinkNeutrality, MeLinkCampaignsArePinnedAndThreadInvariant) {
  struct Row {
    const char* campaign;
    const char* link;
    std::uint64_t pin;
  };
  constexpr Row kRows[] = {
      {"ask_burst_coupling_drop", "me", 0x5946cb8314863f09ULL},
      {"stochastic_soak", "me", 0xbba87accf11eb250ULL},
      {"bioz_tissue_drift", "me", 0x879ef9bc1f02e229ULL},
  };
  for (const auto& row : kRows) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(campaign_fp(row.campaign, threads, row.link), row.pin)
          << row.campaign << " on " << row.link << ", threads=" << threads;
    }
  }
}

// Fleets with every cohort on one link and workload, what
// `fleet_runner --link L --workload W --sessions 60 --exchanges 2`
// runs. The first row, the bio-impedance fleet on the magnetoelectric
// link, makes every measurement a linear tissue-ladder transient, so it
// pins the engine's linear path end to end; the others pin each
// remaining link and front-end pairing of the fleet pipeline.
TEST(LinkNeutrality, MeBioZFleetIsPinnedAndThreadInvariant) {
  struct Row {
    const char* link;
    fault::Workload workload;
    std::uint64_t pin;
  };
  constexpr Row kRows[] = {
      {"me", fault::Workload::kBioZ, 0xa70b3d838406db0bULL},
      {"inductive", fault::Workload::kLactateBehavioural,
       0x37cdb8a3d770e554ULL},
      {"inductive", fault::Workload::kBioZ, 0x0bc79c92d01d1fedULL},
      {"me", fault::Workload::kLactateSpice, 0xb2c4e1c8d39921bcULL},
      {"me", fault::Workload::kLactateBehavioural, 0xb1d050a802db672dULL},
  };
  for (const auto& row : kRows) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      fleet::FleetConfig config;
      config.sessions = 60;
      config.exchanges = 2;
      config.threads = threads;
      for (auto& cohort : config.cohorts) {
        cohort.link = row.link;
        cohort.workload = row.workload;
      }
      EXPECT_EQ(fleet::run_fleet(config).fingerprint, row.pin)
          << row.link << "/" << fault::workload_name(row.workload)
          << ", threads=" << threads;
    }
  }
}

}  // namespace
