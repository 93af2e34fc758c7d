// bench_obs_overhead — proves the observability tax on the fault-campaign
// hot path stays within budget, in-process.
//
// Two legs run the same deterministic campaign mix (every campaign at
// its default size, one after another, at 1 thread):
//   off  obs::set_runtime_enabled(false): every counter/gauge/histogram
//        record, every profiler zone, and every telemetry emit
//        early-returns — the runtime proxy for compiling with
//        IRONIC_OBS_ENABLED=OFF, measurable in one binary so the
//        comparison shares code layout and cache state
//   on   runtime enabled, the profiler armed, and the telemetry sink
//        streaming JSONL to a scratch file
// The legs run in kPairs adjacent on/off pairs, which leg goes first
// alternating, and each pair gives one on/off wall ratio. The bench
// FAILS (exit 1) when the median ratio exceeds 1 + kMaxOverheadPct /
// 100. A pair's legs share the host's load of the moment, and the
// median ignores the pairs a burst of it split, where a min over a few
// short legs passed or failed by the load alone.
//
// It also asserts the observation-neutrality contract: campaign
// fingerprints must be bit-identical with telemetry on or off and for
// any thread count (1 vs 4 here), and every leg must reproduce them —
// instrumentation that perturbs the simulation is a bug this bench
// turns into a red build.
//
// Writes BENCH_obs_overhead.json (schema ironic.run_report/1) with the
// median per-leg walls and the measured overhead percentage as extras.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/fault/campaign.hpp"
#include "src/obs/obs.hpp"

using namespace ironic;

namespace {

constexpr double kMaxOverheadPct = 5.0;
// On/off pairs the gate takes the median ratio of; odd, so the median
// is one pair's ratio.
constexpr int kPairs = 17;

fault::CampaignConfig bench_config() {
  fault::CampaignConfig config;
  config.name = "ask_burst_coupling_drop";
  config.scenarios = 3;
  config.exchanges = 12;
  config.threads = 1;
  return config;
}

// One pass over every campaign with obs on or off; returns its wall
// time [s] and leaves the campaigns' fingerprints in `fingerprints`.
double timed_leg(bool obs_on, std::vector<std::uint64_t>* fingerprints) {
  obs::set_runtime_enabled(obs_on);
  fingerprints->clear();
  fault::CampaignConfig config;
  config.threads = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& name : fault::campaign_names()) {
    config.name = name;
    fingerprints->push_back(fault::run_campaign(config).fingerprint);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  return wall.count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  obs::RunReport report("obs_overhead");
  const std::string scratch = "bench_obs_overhead_telemetry.jsonl";

  // Contract 1: observation neutrality. Fingerprints are bit-identical
  // with telemetry/profiling on or off and for any thread count.
  {
    auto config = bench_config();
    config.scenarios = 2;
    config.exchanges = 6;
    obs::set_runtime_enabled(false);
    const auto base = fault::run_campaign(config);
    obs::set_runtime_enabled(true);
    auto& sink = obs::TelemetrySink::instance();
    if (!sink.open(scratch)) {
      std::cerr << "bench_obs_overhead: cannot open scratch telemetry file\n";
      return 1;
    }
    const auto with_obs = fault::run_campaign(config);
    config.threads = 4;
    const auto threaded = fault::run_campaign(config);
    sink.close();
    if (with_obs.fingerprint != base.fingerprint) {
      std::cerr << "FAIL: telemetry perturbed the campaign fingerprint\n";
      return 1;
    }
    if (threaded.fingerprint != base.fingerprint) {
      std::cerr << "FAIL: fingerprint depends on the thread count\n";
      return 1;
    }
    std::cout << "fingerprint invariant across obs on/off and threads 1/4: 0x"
              << std::hex << base.fingerprint << std::dec << "\n";
  }

  // Contract 2: the instrumented leg costs at most kMaxOverheadPct more
  // wall time, in the median of the pairs.
  auto& sink = obs::TelemetrySink::instance();
  if (!sink.open(scratch)) {
    std::cerr << "bench_obs_overhead: cannot open scratch telemetry file\n";
    return 1;
  }
  // Warm both code paths once so neither leg pays first-touch costs;
  // their fingerprints are the ones every later leg must reproduce.
  std::vector<std::uint64_t> off_fingerprints, on_fingerprints, fingerprints;
  timed_leg(false, &off_fingerprints);
  timed_leg(true, &on_fingerprints);
  if (on_fingerprints != off_fingerprints) {
    std::cerr << "FAIL: overhead legs disagree on the fingerprint\n";
    return 1;
  }
  std::vector<double> ratios, off_walls, on_walls;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    double off_wall = 0.0, on_wall = 0.0;
    for (const bool on : {on_first, !on_first}) {
      (on ? on_wall : off_wall) = timed_leg(on, &fingerprints);
      if (fingerprints != off_fingerprints) {
        std::cerr << "FAIL: overhead legs disagree on the fingerprint\n";
        return 1;
      }
    }
    off_walls.push_back(off_wall);
    on_walls.push_back(on_wall);
    ratios.push_back(on_wall / off_wall);
  }
  sink.close();
  obs::set_runtime_enabled(true);
  std::remove(scratch.c_str());

  const double overhead_pct = (median(ratios) - 1.0) * 100.0;
  const auto [lowest, highest] = std::minmax_element(ratios.begin(), ratios.end());
  std::cout << "obs off: " << median(off_walls) * 1e3 << " ms   obs on: "
            << median(on_walls) * 1e3 << " ms (medians)   overhead: "
            << overhead_pct << " % (median of " << kPairs
            << " pairs; pairs ranged " << (*lowest - 1.0) * 100.0 << " to "
            << (*highest - 1.0) * 100.0 << " %)\n";

  report.metric("wall_off_s", median(off_walls));
  report.metric("wall_on_s", median(on_walls));
  report.metric("overhead_pct", overhead_pct);
  report.metric("overhead_budget_pct", kMaxOverheadPct);

  if (overhead_pct > kMaxOverheadPct) {
    std::cerr << "FAIL: observability overhead " << overhead_pct
              << " % exceeds the " << kMaxOverheadPct << " % budget\n";
    return 1;
  }
  std::cout << "PASS: within the " << kMaxOverheadPct << " % budget\n";
  return 0;
}
