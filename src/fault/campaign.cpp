#include "src/fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/exec/thread_pool.hpp"
#include "src/fault/pipeline.hpp"
#include "src/fault/plant.hpp"
#include "src/fault/session.hpp"
#include "src/fault/validate.hpp"
#include "src/link/phy.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/telemetry.hpp"
#include "src/patch/scheduler.hpp"
#include "src/pm/regulator.hpp"
#include "src/spice/analysis/analysis.hpp"
#include "src/util/fingerprint.hpp"
#include "src/util/rng.hpp"

namespace ironic::fault {
namespace {

// FNV-1a over every deterministic scenario field, in index order (see
// util::Fingerprint): equal fingerprints mean bit-identical campaigns.
std::uint64_t fingerprint_scenarios(const std::vector<ScenarioResult>& scenarios) {
  util::Fingerprint fp;
  for (const auto& s : scenarios) {
    fp.feed_i(s.index);
    fp.feed_i(s.exchanges);
    fp.feed_i(s.completed);
    fp.feed_i(s.lost);
    fp.feed_i(s.retries);
    fp.feed_i(s.recovered);
    fp.feed(s.recover_seconds);
    fp.feed(s.backoff_seconds);
    fp.feed_i(s.rate_fallbacks);
    fp.feed_i(s.rate_recoveries);
    fp.feed_i(s.restarts);
    fp.feed_i(s.checkpoints);
    fp.feed_i(s.ldo_violations);
    fp.feed_i(s.brownouts);
    fp.feed(s.final_rate);
    fp.feed(s.sim_time);
    for (const auto count : s.faults_injected) fp.feed(count);
    for (const auto code : s.adc_codes) fp.feed(static_cast<std::uint64_t>(code));
  }
  return fp.value();
}

// --- scenario runners -------------------------------------------------------

// One scenario on the patient pipeline (pipeline.hpp): RNG lanes
// Rng::stream(seed, 3 * index + k), a cold rectifier plant, and the
// call's shared memos.
ScenarioResult run_link_scenario(const CampaignConfig& config, int index,
                                 FaultSchedule schedule,
                                 SessionOptions session_options,
                                 Workload workload,
                                 obs::MetricsRegistry& scoped,
                                 PlantMemos& memos) {
  PatientInputs inputs;
  inputs.link = config.link;
  inputs.workload = workload;
  inputs.schedule = std::move(schedule);
  inputs.options = std::move(session_options);
  inputs.exchanges = config.exchanges;
  inputs.injector_rng = util::Rng::stream(config.seed, 3u * index + 0);
  inputs.channel_rng = util::Rng::stream(config.seed, 3u * index + 1);
  inputs.session_rng = util::Rng::stream(config.seed, 3u * index + 2);
  inputs.memos = &memos;
  // Per-scenario (cohort) telemetry lands in the scoped child registry;
  // run_campaign aggregates the children into cohort.* percentiles.
  inputs.scoped = &scoped;
  inputs.metric_prefix = "fault.scenario";
  ScenarioResult result;
  static_cast<PatientOutcome&>(result) = run_patient(inputs);
  result.index = index;
  return result;
}

// Scripted: a downlink burst-error window, an overvoltage transient, an
// LDO rail sag, then a permanent coupling collapse (the paper's 17 mm
// sirloin geometry) mid-session. The acceptance scenario: retries +
// backoff ride out the burst, the rate ladder buys back the link after
// the coupling drop, checkpoint restarts absorb the drive changes, and
// no measurement is lost.
FaultSchedule make_ask_burst_schedule(int index) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kBurstError, 0.35, 0.8,
                static_cast<double>(10 + 2 * index), LinkDirection::kDownlink});
  schedule.add({FaultKind::kOvervoltage, 0.55, 0.25, 1.8, LinkDirection::kBoth});
  schedule.add({FaultKind::kLdoDropout, 1.0, 0.3, 0.5, LinkDirection::kBoth});
  schedule.add({FaultKind::kCouplingStep, 1.3, -1.0, 17e-3, LinkDirection::kBoth});
  schedule.add({FaultKind::kTissueDrift, 1.3, -1.0, 17e-3, LinkDirection::kBoth});
  return schedule;
}

ScenarioResult run_ask_burst_scenario(const CampaignConfig& config, int index,
                                      obs::MetricsRegistry& scoped,
                                      PlantMemos& memos) {
  SessionOptions options;
  options.max_attempts = 20;
  options.exchange_timeout = 30.0;
  options.rate_ladder = {100e3, 50e3, 25e3, 12.5e3, 6.25e3};
  return run_link_scenario(config, index, make_ask_burst_schedule(index),
                           options, Workload::kLactateSpice, scoped, memos);
}

// The stochastic generator's horizon [s], shared by the schedule and
// its validation. Its literal 0.25 s cadence feeds the pinned stochastic
// fingerprints, so it stays fixed for every link.
double stochastic_horizon(const CampaignConfig& config) {
  return 0.25 * config.exchanges + 1.0;
}

// Stochastic soak: every fault kind drawn from a seeded schedule, the
// behavioural front end, and a tighter retry budget — partial recovery
// is allowed and the campaign reports the achieved rate.
FaultSchedule make_stochastic_schedule(const CampaignConfig& config, int index) {
  util::Rng schedule_rng = util::Rng::stream(config.seed, 1000u + index);
  StochasticScheduleConfig stochastic;
  stochastic.horizon = stochastic_horizon(config);
  return FaultSchedule::stochastic(schedule_rng, stochastic);
}

ScenarioResult run_stochastic_scenario(const CampaignConfig& config, int index,
                                       obs::MetricsRegistry& scoped,
                                       PlantMemos& memos) {
  SessionOptions options;
  options.max_attempts = 10;
  options.exchange_timeout = 10.0;
  return run_link_scenario(config, index,
                           make_stochastic_schedule(config, index), options,
                           Workload::kLactateBehavioural, scoped, memos);
}

// The magnetoelectric acceptance scenario: a chip-level burst strikes
// the PWM backscatter uplink, then the wearable field coil slips 10 mm
// off the lobe axis while a 17 mm slab appears — a power collapse the
// inductive link would not survive at rate, which the ME rate ladder
// buys back — and a rail sag lands near the end. Event times are
// fractions of the horizon so the plan stays valid for any --exchanges.
FaultSchedule make_me_schedule(const CampaignConfig& config, int index) {
  const double horizon =
      link::nominal_profile("me").cadence_s * config.exchanges;
  FaultSchedule schedule;
  schedule.add({FaultKind::kBurstError, 0.12 * horizon, 0.25 * horizon,
                static_cast<double>(12 + 2 * index), LinkDirection::kUplink});
  schedule.add({FaultKind::kMisalignment, 0.5 * horizon, -1.0, 10e-3,
                LinkDirection::kBoth});
  schedule.add({FaultKind::kTissueDrift, 0.5 * horizon, -1.0, 17e-3,
                LinkDirection::kBoth});
  schedule.add({FaultKind::kLdoDropout, 0.8 * horizon, 0.08 * horizon, 0.5,
                LinkDirection::kBoth});
  return schedule;
}

ScenarioResult run_me_scenario(const CampaignConfig& config, int index,
                               obs::MetricsRegistry& scoped,
                               PlantMemos& memos) {
  SessionOptions options;
  options.max_attempts = 20;
  options.exchange_timeout = 30.0;
  options.rate_ladder = {4e3, 2e3, 1e3};
  return run_link_scenario(config, index, make_me_schedule(config, index),
                           options, Workload::kLactateSpice, scoped, memos);
}

// Bio-impedance under drift: a permanent Re/Ri drift (oedema onset)
// shifts the measured codes mid-session while a downlink burst and a
// rail sag exercise the retry and regulation paths around it.
FaultSchedule make_bioz_schedule(const CampaignConfig& config, int index) {
  const double horizon =
      link::nominal_profile(config.link).cadence_s * config.exchanges;
  FaultSchedule schedule;
  schedule.add({FaultKind::kBurstError, 0.15 * horizon, 0.2 * horizon,
                static_cast<double>(10 + 2 * index), LinkDirection::kDownlink});
  schedule.add({FaultKind::kTissueDrift, 0.45 * horizon, -1.0,
                (14.0 + 2.0 * index) * 1e-3, LinkDirection::kBoth});
  schedule.add({FaultKind::kLdoDropout, 0.75 * horizon, 0.1 * horizon, 0.55,
                LinkDirection::kBoth});
  return schedule;
}

ScenarioResult run_bioz_scenario(const CampaignConfig& config, int index,
                                 obs::MetricsRegistry& scoped,
                                 PlantMemos& memos) {
  SessionOptions options;
  options.max_attempts = 12;
  options.exchange_timeout = 10.0;
  return run_link_scenario(config, index, make_bioz_schedule(config, index),
                           options, Workload::kBioZ, scoped, memos);
}

// Brownouts against the degradation ladder: injected charge dips strike
// a degrading mission; the ladder sheds bluetooth, then cadence, then
// everything, and the scenario records what survived.
patch::DegradedMissionOptions make_brownout_options(const CampaignConfig& config,
                                                    int index) {
  util::Rng rng = util::Rng::stream(config.seed, 2000u + index);
  patch::DegradedMissionOptions options;
  options.plan.connect_time = 20.0;
  options.measurement_interval = 180.0;
  options.horizon = 6.0 * 3600.0;
  const int dips = 2 + static_cast<int>(rng.below(3));
  for (int i = 0; i < dips; ++i) {
    options.brownouts.push_back(
        {rng.uniform(600.0, 0.6 * options.horizon), rng.uniform(0.05, 0.20)});
  }
  return options;
}

ScenarioResult run_brownout_scenario(const CampaignConfig& config, int index,
                                     obs::MetricsRegistry& scoped,
                                     PlantMemos& /*memos*/) {
  const patch::DegradedMissionOptions options = make_brownout_options(config, index);
  patch::BatterySpec battery;
  battery.capacity_mah = 100.0;

  const auto summary = patch::simulate_degrading_mission({}, battery, options);

  ScenarioResult result;
  result.index = index;
  result.exchanges = summary.measurements + summary.measurements_shed;
  result.completed = summary.measurements;
  result.lost = 0;  // shed-by-policy is graceful degradation, not loss
  result.brownouts = summary.brownouts_applied;
  result.faults_injected[static_cast<int>(FaultKind::kBrownout)] =
      static_cast<std::uint64_t>(summary.brownouts_applied);
  result.sim_time =
      summary.shutdown_time > 0.0 ? summary.shutdown_time : options.horizon;
  if constexpr (obs::kEnabled) {
    scoped.counter("fault.scenario.lost")
        .add(static_cast<std::uint64_t>(result.lost));
    scoped.gauge("fault.scenario.measurements_completed")
        .set(static_cast<double>(result.completed));
    scoped.gauge("fault.scenario.brownouts")
        .set(static_cast<double>(result.brownouts));
  }
  return result;
}

// --- static plan validation -------------------------------------------------

std::string plan_label(const CampaignConfig& config, int index) {
  return config.name + " scenario " + std::to_string(index);
}

// Peak |node voltage| of the shared rectifier plant at nominal drive,
// from the static interval-envelope pass. Computed once per process:
// the plant topology is fixed, and reachability is anchored at the
// nominal operating point.
double plant_envelope_vmax() {
  static const double vmax = [] {
    const auto ckt = RectifierPlant::build(kNominalDrive);
    const auto report = spice::analysis::analyze(*ckt);
    double peak = 0.0;
    for (const auto& node : report.envelope.nodes) {
      if (std::isfinite(node.lo)) peak = std::max(peak, std::abs(node.lo));
      if (std::isfinite(node.hi)) peak = std::max(peak, std::abs(node.hi));
    }
    return peak;
  }();
  return vmax;
}

void validate_ask_burst_plan(const CampaignConfig& config, int index) {
  PlanContext context;
  context.horizon =
      link::nominal_profile(config.link).cadence_s * config.exchanges;
  context.envelope_vmax = plant_envelope_vmax();
  // An overvoltage only matters if the scaled drive can push the rail
  // past the LDO's input floor.
  context.overvoltage_limit = pm::LdoSpec{}.min_input_voltage();
  require_valid_schedule(make_ask_burst_schedule(index), context,
                         plan_label(config, index));
}

void validate_stochastic_plan(const CampaignConfig& config, int index) {
  PlanContext context;
  context.horizon = stochastic_horizon(config);
  require_valid_schedule(make_stochastic_schedule(config, index), context,
                         plan_label(config, index));
}

void validate_me_plan(const CampaignConfig& config, int index) {
  PlanContext context;
  context.horizon = link::nominal_profile("me").cadence_s * config.exchanges;
  require_valid_schedule(make_me_schedule(config, index), context,
                         plan_label(config, index));
}

void validate_bioz_plan(const CampaignConfig& config, int index) {
  PlanContext context;
  context.horizon =
      link::nominal_profile(config.link).cadence_s * config.exchanges;
  require_valid_schedule(make_bioz_schedule(config, index), context,
                         plan_label(config, index));
}

void validate_brownout_plan(const CampaignConfig& config, int index) {
  const auto options = make_brownout_options(config, index);
  FaultSchedule schedule;
  for (const auto& dip : options.brownouts) {
    schedule.add({FaultKind::kBrownout, dip.time, 0.0, dip.fraction,
                  LinkDirection::kBoth});
  }
  PlanContext context;
  context.horizon = options.horizon;
  require_valid_schedule(schedule, context, plan_label(config, index));
}

using ScenarioRunner = ScenarioResult (*)(const CampaignConfig&, int,
                                          obs::MetricsRegistry&, PlantMemos&);
using PlanValidator = void (*)(const CampaignConfig&, int);

struct NamedCampaign {
  const char* name;
  ScenarioRunner run;
  PlanValidator validate;
  // Non-null pins the campaign to a specific LinkPhy backend (the
  // scenario script is written for that physical layer); null runs on
  // config.link.
  const char* backend;
};

constexpr NamedCampaign kCampaigns[] = {
    {"ask_burst_coupling_drop", run_ask_burst_scenario, validate_ask_burst_plan,
     nullptr},
    {"stochastic_soak", run_stochastic_scenario, validate_stochastic_plan,
     nullptr},
    {"brownout_shedding", run_brownout_scenario, validate_brownout_plan,
     nullptr},
    {"me_backscatter_soak", run_me_scenario, validate_me_plan, "me"},
    {"bioz_tissue_drift", run_bioz_scenario, validate_bioz_plan, nullptr},
};

}  // namespace

std::vector<std::string> campaign_names() {
  std::vector<std::string> names;
  for (const auto& campaign : kCampaigns) names.emplace_back(campaign.name);
  return names;
}

bool is_campaign(const std::string& name) {
  for (const auto& campaign : kCampaigns) {
    if (name == campaign.name) return true;
  }
  return false;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  if (config.scenarios < 1 || config.exchanges < 1) {
    throw std::invalid_argument("run_campaign: scenarios and exchanges must be >= 1");
  }
  const NamedCampaign* chosen = nullptr;
  for (const auto& campaign : kCampaigns) {
    if (config.name == campaign.name) chosen = &campaign;
  }
  if (chosen == nullptr) {
    throw std::invalid_argument("run_campaign: unknown campaign '" + config.name + "'");
  }

  // Resolve the LinkPhy backend: a campaign written for a specific
  // physical layer overrides config.link; either way the name must be
  // registered (throws std::invalid_argument with the known names).
  CampaignConfig effective = config;
  if (chosen->backend != nullptr) effective.link = chosen->backend;
  link::nominal_profile(effective.link);

  // Static pre-validation: every scenario's fault plan is checked against
  // the run horizon, magnitude domains, and envelope reachability before
  // any scenario executes (throws std::invalid_argument on a bad plan).
  for (int j = 0; j < effective.scenarios; ++j) chosen->validate(effective, j);

  CampaignResult result;
  result.name = config.name;
  result.scenarios.resize(static_cast<std::size_t>(config.scenarios));

  // One labelled child registry per scenario, forked before the workers
  // start: scenario j records into scoped[j] only, so cohort statistics
  // (and the fingerprint) are independent of the thread count.
  auto& registry = obs::MetricsRegistry::instance();
  std::vector<std::shared_ptr<obs::MetricsRegistry>> scoped;
  scoped.reserve(static_cast<std::size_t>(config.scenarios));
  for (int j = 0; j < config.scenarios; ++j) {
    scoped.push_back(registry.scoped(
        {{"campaign", config.name}, {"scenario", std::to_string(j)}}));
  }

  // Scenario j writes slot j and draws only from streams keyed by
  // (seed, j): bit-identical output for any thread count. The scenarios
  // share one memo bundle that lives for this call only; a hit returns
  // exactly what the simulation would have.
  PlantMemos memos;
  exec::ThreadPool pool(config.threads);
  exec::ParallelForOptions options;
  options.grain = 1;
  exec::parallel_for(
      pool, 0, static_cast<std::size_t>(config.scenarios),
      [&](std::size_t j) {
        result.scenarios[j] =
            chosen->run(effective, static_cast<int>(j), *scoped[j], memos);
      },
      options);
  result.segment_hits = memos.segments.hits();
  result.segment_misses = memos.segments.misses();
  result.bioz_hits = memos.bioz.hits();
  result.bioz_misses = memos.bioz.misses();

  int disturbed = 0;
  for (const auto& s : result.scenarios) {
    result.total_exchanges += s.exchanges;
    result.completed += s.completed;
    result.lost_measurements += s.lost;
    result.retries += s.retries;
    result.restarts += s.restarts;
    result.checkpoints += s.checkpoints;
    disturbed += s.recovered + s.lost;
    result.mean_time_to_recover += s.recover_seconds;
    for (int k = 0; k < kFaultKindCount; ++k) {
      result.faults_injected[k] += s.faults_injected[k];
    }
  }
  int recovered = 0;
  for (const auto& s : result.scenarios) recovered += s.recovered;
  result.recovery_rate =
      disturbed > 0 ? static_cast<double>(recovered) / disturbed : 1.0;
  result.mean_time_to_recover =
      recovered > 0 ? result.mean_time_to_recover / recovered : 0.0;
  result.fingerprint = fingerprint_scenarios(result.scenarios);

  if constexpr (obs::kEnabled) {
    // link.* schema: which physical layer served this campaign, its
    // nominal numbers, and the power queries the scenarios issued and
    // the memo answered (trace_validate --require pins these in CI).
    std::uint64_t power_queries = 0;
    std::uint64_t power_hits = 0;
    for (const auto& s : result.scenarios) {
      power_queries += s.power_queries;
      power_hits += s.power_hits;
    }
    const auto& profile = link::nominal_profile(effective.link);
    registry.counter("link.power_queries").add(power_queries);
    registry.counter("link.power_hits").add(power_hits);
    registry.gauge("link." + effective.link + ".p_nominal_w")
        .set(link::make_backend(effective.link)->nominal_power());
    registry.gauge("link." + effective.link + ".nominal_rate_bps")
        .set(profile.rate_bps);
    registry.gauge("link." + effective.link + ".cadence_s")
        .set(profile.cadence_s);
    registry.counter("fault.campaign.runs").add();
    // Plant memo totals, summed over the campaign calls of a run.
    registry.counter("fault.campaign.segment_hits").add(result.segment_hits);
    registry.counter("fault.campaign.segment_misses")
        .add(result.segment_misses);
    registry.counter("fault.campaign.bioz_hits").add(result.bioz_hits);
    registry.counter("fault.campaign.bioz_misses").add(result.bioz_misses);
    registry.gauge("fault.campaign.recovery_rate").set(result.recovery_rate);
    registry.gauge("fault.campaign.lost_measurements")
        .set(static_cast<double>(result.lost_measurements));
    registry.gauge("fault.campaign.mean_time_to_recover_s")
        .set(result.mean_time_to_recover);
    // Fold the per-scenario children into cohort.<campaign>.* gauges
    // (sessions/count/min/max/mean/p50/p95/p99 per metric) while the
    // children are still alive; they expire when `scoped` goes away.
    registry.publish_cohorts("cohort." + config.name);
    auto& sink = obs::TelemetrySink::instance();
    if (sink.is_open()) {
      for (const auto& child : scoped) sink.emit_metrics_snapshot(*child);
      sink.emit_event("fault.campaign", "complete",
                      {{"campaign", obs::json::Value(config.name)},
                       {"recovery_rate", obs::json::Value(result.recovery_rate)},
                       {"lost", obs::json::Value(static_cast<std::uint64_t>(
                                    result.lost_measurements))}});
    }
  }
  return result;
}

}  // namespace ironic::fault
