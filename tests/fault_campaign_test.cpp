// End-to-end fault campaigns — the acceptance gate for the resilience
// contract: the scripted ASK-burst + coupling-drop campaign completes
// with zero lost measurements through retry/backoff, rate fallback, and
// checkpoint restart, and every campaign is bit-identical for any
// thread count and any two same-seed runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/fault/campaign.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace ironic::fault;

TEST(FaultCampaign, RegistryListsTheFiveCampaigns) {
  const auto names = campaign_names();
  ASSERT_EQ(names.size(), 5u);
  for (const auto& name : names) EXPECT_TRUE(is_campaign(name));
  EXPECT_TRUE(is_campaign("ask_burst_coupling_drop"));
  EXPECT_TRUE(is_campaign("me_backscatter_soak"));
  EXPECT_TRUE(is_campaign("bioz_tissue_drift"));
  EXPECT_FALSE(is_campaign("nonexistent"));
}

// The ISSUE acceptance scenario: downlink burst errors, an overvoltage
// transient, then a permanent 17 mm-sirloin coupling drop mid-session.
// The session + checkpoint machinery must deliver every measurement.
TEST(FaultCampaign, ScriptedCampaignSurvivesWithZeroLostMeasurements) {
  CampaignConfig config;  // ask_burst_coupling_drop, 3 scenarios x 10
  const auto result = run_campaign(config);

  EXPECT_EQ(result.total_exchanges, config.scenarios * config.exchanges);
  EXPECT_EQ(result.completed, result.total_exchanges);
  EXPECT_EQ(result.lost_measurements, 0);
  EXPECT_DOUBLE_EQ(result.recovery_rate, 1.0);

  // The zero-loss run must have been *earned*: faults fired, retries and
  // backoff rode out the burst window, the rate ladder dropped, and the
  // rectifier transient was restarted from a committed checkpoint when
  // the drive amplitude stepped.
  EXPECT_GT(result.retries, 0);
  EXPECT_GT(result.restarts, 0);
  EXPECT_GT(result.checkpoints, 0);
  EXPECT_GT(result.mean_time_to_recover, 0.0);
  EXPECT_GT(result.faults_injected[static_cast<int>(FaultKind::kBurstError)], 0u);
  EXPECT_GT(result.faults_injected[static_cast<int>(FaultKind::kCouplingStep)],
            0u);

  ASSERT_EQ(result.scenarios.size(), static_cast<std::size_t>(config.scenarios));
  for (const auto& scenario : result.scenarios) {
    EXPECT_EQ(scenario.lost, 0);
    EXPECT_EQ(scenario.completed, config.exchanges);
    EXPECT_EQ(scenario.adc_codes.size(),
              static_cast<std::size_t>(config.exchanges));
    EXPECT_GT(scenario.rate_fallbacks, 0);
    EXPECT_LT(scenario.final_rate, 100e3);  // ended on a fallback rung
    EXPECT_GT(scenario.backoff_seconds, 0.0);
  }
}

TEST(FaultCampaign, ScriptedCampaignIsThreadCountInvariant) {
  CampaignConfig serial;
  serial.threads = 1;
  CampaignConfig wide = serial;
  wide.threads = 4;

  const auto a = run_campaign(serial);
  const auto b = run_campaign(wide);
  const auto c = run_campaign(serial);  // same-seed rerun

  EXPECT_NE(a.fingerprint, 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);

  // Spot-check that the fingerprint is not vacuous: the per-scenario
  // payloads really are identical.
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].adc_codes, b.scenarios[i].adc_codes);
    EXPECT_EQ(a.scenarios[i].retries, b.scenarios[i].retries);
    EXPECT_EQ(a.scenarios[i].sim_time, b.scenarios[i].sim_time);
  }

  // The scenarios share the call's plant memos. Misses are the distinct
  // inputs, so the totals are thread-count invariant too. Every
  // committed segment is a hit or a miss, and nothing else is: a
  // restart is counted, not simulated. The three scenarios restart at
  // one shared segment: one simulates it, and two read it back.
  EXPECT_GT(a.segment_hits, 0u);
  EXPECT_EQ(a.restarts, 3);
  EXPECT_EQ(a.segment_hits + a.segment_misses,
            static_cast<std::uint64_t>(a.checkpoints));
  EXPECT_EQ(a.segment_hits, b.segment_hits);
  EXPECT_EQ(a.segment_misses, b.segment_misses);
  EXPECT_EQ(a.bioz_hits + a.bioz_misses, 0u);  // no bio-impedance plant

  CampaignConfig bioz_serial = serial;
  bioz_serial.name = "bioz_tissue_drift";
  CampaignConfig bioz_wide = bioz_serial;
  bioz_wide.threads = 4;
  const auto d = run_campaign(bioz_serial);
  const auto e = run_campaign(bioz_wide);
  EXPECT_EQ(d.fingerprint, e.fingerprint);
  EXPECT_GT(d.bioz_hits, 0u);
  EXPECT_EQ(d.bioz_hits + d.bioz_misses,
            static_cast<std::uint64_t>(d.checkpoints));
  EXPECT_EQ(d.bioz_hits, e.bioz_hits);
  EXPECT_EQ(d.bioz_misses, e.bioz_misses);
  EXPECT_EQ(d.segment_hits + d.segment_misses, 0u);  // no rectifier plant
}

#if IRONIC_OBS_ENABLED
// Streaming telemetry is an observer, not a participant: a campaign run
// with the sink wide open must produce the same fingerprint as one with
// telemetry off entirely.
TEST(FaultCampaign, TelemetryDoesNotPerturbFingerprint) {
  namespace obs = ironic::obs;
  CampaignConfig config;
  config.exchanges = 6;  // keep the telemetry leg quick

  obs::TelemetrySink::instance().close();
  obs::set_runtime_enabled(false);
  const auto quiet = run_campaign(config);
  obs::set_runtime_enabled(true);

  const std::string path =
      ::testing::TempDir() + "/ironic_campaign_fingerprint.jsonl";
  ASSERT_TRUE(obs::TelemetrySink::instance().open(path));
  const auto streamed = run_campaign(config);
  obs::TelemetrySink::instance().close();
  std::remove(path.c_str());

  EXPECT_NE(quiet.fingerprint, 0u);
  EXPECT_EQ(quiet.fingerprint, streamed.fingerprint);
}
#endif  // IRONIC_OBS_ENABLED

TEST(FaultCampaign, DifferentSeedsDiverge) {
  CampaignConfig config;
  const auto a = run_campaign(config);
  config.seed = 0xfeedface;
  const auto b = run_campaign(config);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FaultCampaign, StochasticSoakIsDeterministic) {
  CampaignConfig config;
  config.name = "stochastic_soak";
  config.threads = 1;
  const auto a = run_campaign(config);
  config.threads = 4;
  const auto b = run_campaign(config);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.total_exchanges, 30);
  // Partial recovery is allowed here, but the soak must not be a no-op.
  std::uint64_t injected = 0;
  for (const auto count : a.faults_injected) injected += count;
  EXPECT_GT(injected, 0u);
}

TEST(FaultCampaign, BrownoutSheddingHitsThePatchAndStaysDeterministic) {
  CampaignConfig config;
  config.name = "brownout_shedding";
  const auto a = run_campaign(config);
  const auto b = run_campaign(config);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  int brownouts = 0;
  for (const auto& scenario : a.scenarios) brownouts += scenario.brownouts;
  EXPECT_GT(brownouts, 0);
}

TEST(FaultCampaign, RejectsBadConfig) {
  CampaignConfig config;
  config.name = "nonexistent";
  EXPECT_THROW(run_campaign(config), std::invalid_argument);
  config = CampaignConfig{};
  config.scenarios = 0;
  EXPECT_THROW(run_campaign(config), std::invalid_argument);
  config = CampaignConfig{};
  config.exchanges = -1;
  EXPECT_THROW(run_campaign(config), std::invalid_argument);
}

}  // namespace
