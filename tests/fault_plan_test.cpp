// Fault-plan static pre-validation (DESIGN.md §13): bad campaigns are
// rejected at load, before any scenario executes, with stable issue
// codes; good plans (including every registered campaign at its default
// config) sail through; and the analysis-hints path changes nothing the
// fingerprint can see.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/fault/campaign.hpp"
#include "src/fault/schedule.hpp"
#include "src/fault/validate.hpp"

namespace {

using namespace ironic::fault;

bool has_issue(const PlanReport& report, const std::string& code) {
  for (const auto& issue : report.issues) {
    if (issue.code == code) return true;
  }
  return false;
}

}  // namespace

TEST(FaultPlan, CleanScheduleValidates) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBurstError, 0.35, 0.8, 12.0, LinkDirection::kDownlink});
  schedule.add({FaultKind::kOvervoltage, 0.55, 0.25, 1.8, LinkDirection::kBoth});
  schedule.add({FaultKind::kCouplingStep, 1.3, -1.0, 17e-3, LinkDirection::kBoth});

  PlanContext context;
  context.horizon = 2.5;
  context.envelope_vmax = 3.5;
  context.overvoltage_limit = 2.1;
  const auto report = validate_schedule(schedule, context);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_NO_THROW(require_valid_schedule(schedule, context));
}

TEST(FaultPlan, MagnitudeDomainsPerKind) {
  const struct {
    FaultKind kind;
    double bad;
    double good;
  } cases[] = {
      {FaultKind::kCouplingStep, 2.0, 17e-3},   // metres, not mm typos
      {FaultKind::kCouplingStep, 0.0, 1.0},     // coils cannot touch
      {FaultKind::kMisalignment, -1e-3, 5e-3},
      {FaultKind::kTissueDrift, 0.75, 17e-3},
      {FaultKind::kBitFlip, 1.5, 0.01},
      {FaultKind::kBurstError, -4.0, 12.0},
      {FaultKind::kOvervoltage, 0.9, 1.8},      // <= 1 is not an overvoltage
      {FaultKind::kLdoDropout, 1.2, 0.5},       // >= 1 is not a sag
      {FaultKind::kBrownout, 0.0, 0.1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(fault_kind_name(c.kind));
    FaultSchedule bad;
    bad.add({c.kind, 0.1, 0.5, c.bad, LinkDirection::kBoth});
    EXPECT_TRUE(has_issue(validate_schedule(bad), "plan.bad-magnitude"));

    FaultSchedule good;
    good.add({c.kind, 0.1, 0.5, c.good, LinkDirection::kBoth});
    EXPECT_FALSE(has_issue(validate_schedule(good), "plan.bad-magnitude"));
  }
}

TEST(FaultPlan, WindowAndHorizonChecks) {
  FaultSchedule nan_start;
  nan_start.add({FaultKind::kBitFlip, std::nan(""), 0.5, 0.01,
                 LinkDirection::kBoth});
  EXPECT_TRUE(has_issue(validate_schedule(nan_start), "plan.bad-window"));

  FaultSchedule nan_duration;
  nan_duration.add({FaultKind::kBitFlip, 0.1, std::nan(""), 0.01,
                    LinkDirection::kBoth});
  EXPECT_TRUE(has_issue(validate_schedule(nan_duration), "plan.bad-window"));

  // Permanent events (duration <= 0) are a valid window.
  FaultSchedule permanent;
  permanent.add({FaultKind::kCouplingStep, 0.1, -1.0, 17e-3,
                 LinkDirection::kBoth});
  EXPECT_TRUE(validate_schedule(permanent).ok());

  FaultSchedule late;
  late.add({FaultKind::kLdoDropout, 5.0, 0.3, 0.5, LinkDirection::kBoth});
  PlanContext context;
  context.horizon = 2.5;
  EXPECT_TRUE(has_issue(validate_schedule(late, context), "plan.after-horizon"));
  // No horizon in the context -> the same event is fine.
  EXPECT_TRUE(validate_schedule(late).ok());
}

TEST(FaultPlan, OvervoltageReachability) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kOvervoltage, 0.1, 0.25, 1.5, LinkDirection::kBoth});

  // 1.5 x 1.2 V = 1.8 V can never clear a 2.1 V rail: unreachable.
  PlanContext weak;
  weak.horizon = 2.0;
  weak.envelope_vmax = 1.2;
  weak.overvoltage_limit = 2.1;
  EXPECT_TRUE(has_issue(validate_schedule(schedule, weak),
                        "plan.overvoltage-unreachable"));
  EXPECT_THROW(require_valid_schedule(schedule, weak, "weak-plant"),
               std::invalid_argument);

  // 1.5 x 3.5 V = 5.25 V clears it comfortably.
  PlanContext strong = weak;
  strong.envelope_vmax = 3.5;
  EXPECT_TRUE(validate_schedule(schedule, strong).ok());

  // Without envelope context the check is disabled, not assumed.
  PlanContext blind;
  blind.horizon = 2.0;
  EXPECT_TRUE(validate_schedule(schedule, blind).ok());
}

TEST(FaultPlan, RequireValidCollectsAllIssuesInMessage) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kOvervoltage, 0.1, 0.25, 0.5, LinkDirection::kBoth});
  schedule.add({FaultKind::kBrownout, 9.0, 0.0, 2.0, LinkDirection::kBoth});
  PlanContext context;
  context.horizon = 1.0;
  try {
    require_valid_schedule(schedule, context, "doomed");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("doomed"), std::string::npos);
    EXPECT_NE(what.find("plan.bad-magnitude"), std::string::npos);
    EXPECT_NE(what.find("plan.after-horizon"), std::string::npos);
  }
}

// Every registered campaign's default plan must pass its own gate (the
// scripted schedule, the stochastic draw, and the brownout dips are all
// validated inside run_campaign before any scenario runs).
TEST(FaultPlan, RegisteredCampaignsPassAtDefaultConfig) {
  for (const auto& name : campaign_names()) {
    SCOPED_TRACE(name);
    CampaignConfig config;
    config.name = name;
    if (name == "ask_burst_coupling_drop") config.exchanges = 6;  // keep quick
    EXPECT_NO_THROW(run_campaign(config));
  }
}

// The scripted campaign's latest event starts at 1.3 s; a run too short
// to reach it is a bad plan and is rejected at load, before any
// transient executes.
TEST(FaultPlan, CampaignRejectedWhenEventsOutliveRun) {
  CampaignConfig config;
  config.name = "ask_burst_coupling_drop";
  config.exchanges = 2;  // horizon 0.5 s < the 1.3 s coupling drop
  EXPECT_THROW(run_campaign(config), std::invalid_argument);
  // The horizon follows the link's cadence: five inductive exchanges run
  // 1.25 s and still miss the drop, five ME exchanges run 2.5 s.
  config.exchanges = 5;
  EXPECT_THROW(run_campaign(config), std::invalid_argument);
  config.link = "me";
  config.scenarios = 1;
  EXPECT_NO_THROW(run_campaign(config));
}

// Hints on vs off must be invisible to the campaign fingerprint: the dt
// hint only fills a dt_max left at auto, and the plant sets its own.
TEST(FaultPlan, AnalysisHintsPreserveFingerprint) {
  CampaignConfig config;
  config.name = "ask_burst_coupling_drop";
  config.scenarios = 1;
  config.exchanges = 6;

  const auto baseline = run_campaign(config);
  config.analysis_hints = true;
  const auto hinted = run_campaign(config);
  EXPECT_EQ(baseline.fingerprint, hinted.fingerprint);
  EXPECT_EQ(baseline.completed, hinted.completed);
  EXPECT_EQ(baseline.checkpoints, hinted.checkpoints);
}
