#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/spice/circuit.hpp"
#include "src/spice/devices_passive.hpp"
#include "src/spice/devices_sources.hpp"
#include "src/spice/engine.hpp"
#include "src/spice/waveform.hpp"
#include "src/util/log.hpp"

namespace {

using namespace ironic;
using obs::json::Value;

// The compile-time gate and the macro must agree; the whole test binary is
// built with the project-wide IRONIC_OBS_ENABLED setting.
static_assert(obs::kEnabled == (IRONIC_OBS_ENABLED != 0));

TEST(MetricsRegistry, CounterFindOrCreateReturnsSameInstance) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& a = registry.counter("test.obs.counter_identity");
  auto& b = registry.counter("test.obs.counter_identity");
  EXPECT_EQ(&a, &b);

  const auto before = a.value();
  a.add();
  a.add(41);
  EXPECT_EQ(b.value(), before + 42);

  a.reset();
  EXPECT_EQ(b.value(), 0u);
}

TEST(MetricsRegistry, GaugeSetAndSetMax) {
  auto& g = obs::MetricsRegistry::instance().gauge("test.obs.gauge");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(0.5);  // smaller: no change
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsRegistry, SnapshotContainsAllKinds) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test.obs.snap_counter").add(3);
  registry.gauge("test.obs.snap_gauge").set(7.0);
  registry.histogram("test.obs.snap_hist").observe(1e-3);

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& s : registry.snapshot()) {
    if (s.name == "test.obs.snap_counter") {
      saw_counter = true;
      EXPECT_EQ(s.type, "counter");
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    } else if (s.name == "test.obs.snap_gauge") {
      saw_gauge = true;
      EXPECT_EQ(s.type, "gauge");
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    } else if (s.name == "test.obs.snap_hist") {
      saw_hist = true;
      EXPECT_EQ(s.type, "histogram");
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(MetricsRegistry, JsonlDumpParsesLineByLine) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("test.obs.jsonl_counter").add(5);
  registry.histogram("test.obs.jsonl_hist").observe(2.0);

  std::ostringstream os;
  registry.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t rows = 0;
  bool saw_hist_extras = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const Value row = Value::parse(line);
    EXPECT_TRUE(row.at("name").is_string());
    EXPECT_TRUE(row.at("value").is_number());
    if (row.at("type").as_string() == "histogram") {
      EXPECT_TRUE(row.contains("p50"));
      EXPECT_TRUE(row.contains("p95"));
      saw_hist_extras = true;
    }
    ++rows;
  }
  EXPECT_GE(rows, 2u);
  EXPECT_TRUE(saw_hist_extras);
}

TEST(Histogram, PercentilesWithExplicitBounds) {
  // Bounds 1..9; observe 1..100 of each value 1..10 — uniform over buckets.
  obs::Histogram h(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));

  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);

  // Percentiles are clamped to the observed range and monotone.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  const double p50 = h.percentile(50.0);
  const double p95 = h.percentile(95.0);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 6.0);
  EXPECT_GE(p95, p50);
  EXPECT_LE(p95, 10.0);

  // One observation per bucket 1..9 plus one overflow (10 > last bound 9).
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 10u);
  EXPECT_EQ(buckets.back(), 1u);
}

TEST(Histogram, EmptyIsWellDefined) {
  obs::Histogram h({});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_FALSE(h.bounds().empty());  // default 1-2-5 ladder kicks in
}

TEST(Histogram, PercentileSingleObservation) {
  // With one observation every percentile collapses to it: both bucket
  // edges clamp to the observed range [v, v].
  obs::Histogram h({});
  h.observe(3.7);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.7);
}

TEST(Histogram, BucketBoundaryInterpolation) {
  // Both observations land in the (0, 10] bucket, whose edges clamp to
  // the observed range [2, 8]; the p50 target is halfway through the
  // bucket, so linear interpolation gives exactly the midpoint.
  obs::Histogram h(std::vector<double>{0.0, 10.0});
  h.observe(2.0);
  h.observe(8.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  // p25 is a quarter through the bucket: 2 + (8 - 2) * 0.25.
  EXPECT_DOUBLE_EQ(h.percentile(25.0), 3.5);
}

TEST(Histogram, P0AndP100ClampToObservedRange) {
  obs::Histogram h(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));
  // p0 is the smallest observation and p100 the largest, never the
  // (infinite) edges of the first/last buckets; out-of-range requests
  // clamp rather than extrapolate.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(400.0), 10.0);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Histogram, SumIsExactRoundedOnce) {
  // Added left to right in doubles these give 1 (the first 1 vanishes
  // into 1e16) and 0.9999999999999999; their exact sums round to 2 and 1.
  obs::Histogram cancel({});
  for (const double v : {1e16, 1.0, -1e16, 1.0}) cancel.observe(v);
  EXPECT_EQ(bits_of(cancel.sum()), bits_of(2.0));
  EXPECT_EQ(bits_of(cancel.mean()), bits_of(0.5));
  obs::Histogram tenths({});
  for (int i = 0; i < 10; ++i) tenths.observe(0.1);
  EXPECT_EQ(bits_of(tenths.sum()), bits_of(1.0));
  // Below 2^-76 a term truncates at 2^-128; at 2^63 and up it is added
  // as a double beside the fixed-point total.
  obs::Histogram wide({});
  for (const double v : {1e20, -3e-30, 1.0}) wide.observe(v);
  EXPECT_EQ(bits_of(wide.sum()), bits_of(1e20 + 1.0));
}

TEST(Histogram, NonFiniteObservationsKeepTheirIeeeSum) {
  obs::Histogram up({});
  up.observe(1.0);
  up.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(up.sum(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(up.mean(), std::numeric_limits<double>::infinity());
  up.observe(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(up.sum()));
  obs::Histogram nan({});
  nan.observe(2.0);
  nan.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nan.sum()));
  EXPECT_TRUE(std::isnan(nan.mean()));
  EXPECT_EQ(nan.count(), 2u);
}

TEST(MetricsShard, HistogramSumIsIndependentOfThreadsAndOrder) {
  // One set of observations of mixed sign and magnitude, whose running
  // double sum depends on the order: made forward on one thread,
  // backward on one thread, and striped over four threads (so over four
  // shards), the three histograms report the same sum and mean bits.
  std::vector<double> values;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(state >> 11) * 0x1p-53;
    const double magnitude = std::ldexp(unit, static_cast<int>(state % 61) - 30);
    values.push_back((state >> 7) % 3 == 0 ? -magnitude : magnitude);
  }
  obs::Histogram forward({});
  obs::Histogram backward({});
  obs::Histogram striped({});
  for (const double v : values) forward.observe(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.observe(*it);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const obs::ThreadRegistration registration;
      for (std::size_t i = t; i < values.size(); i += kThreads) {
        striped.observe(values[values.size() - 1 - i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  double naive_forward = 0.0;
  double naive_backward = 0.0;
  for (const double v : values) naive_forward += v;
  for (auto it = values.rbegin(); it != values.rend(); ++it) naive_backward += *it;
  EXPECT_NE(bits_of(naive_forward), bits_of(naive_backward));  // not vacuous
  for (const auto* h : {&backward, &striped}) {
    EXPECT_EQ(h->count(), forward.count());
    EXPECT_EQ(bits_of(h->sum()), bits_of(forward.sum()));
    EXPECT_EQ(bits_of(h->mean()), bits_of(forward.mean()));
  }
}

TEST(MetricsShard, CounterConcurrentAddsSumExactly) {
  auto& counter =
      obs::MetricsRegistry::instance().counter("test.obs.shard_counter");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      const obs::ThreadRegistration registration;
      for (int i = 0; i < kAdds; ++i) counter.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsShard, GaugeBalancedConcurrentAddsCancel) {
  auto& gauge = obs::MetricsRegistry::instance().gauge("test.obs.shard_gauge");
  gauge.set(10.0);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&gauge] {
      const obs::ThreadRegistration registration;
      for (int i = 0; i < 5000; ++i) {
        gauge.add(1.0);
        gauge.add(-1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0);
}

TEST(MetricsShard, ThreadIndicesAreStableAndDistinct) {
  const auto mine = obs::thread_index();
  EXPECT_GE(mine, 1u);
  EXPECT_EQ(obs::thread_index(), mine);  // stable within a thread
  std::set<std::uint32_t> seen;
  std::mutex mutex;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      const auto index = obs::thread_index();
      const std::lock_guard<std::mutex> lock(mutex);
      seen.insert(index);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.count(mine), 0u);
}

TEST(MetricsShard, HistogramResetNeverTearsTheMergedView) {
  // The documented contract: an observation is indivisible for merged()
  // and reset(), so a merge overlapping both a reset and an in-flight
  // observation holds whole observations only: as many in the buckets as
  // in the count, and a real min and max whenever the count is nonzero.
  auto& h = obs::MetricsRegistry::instance().histogram(
      "test.obs.shard_reset_hist", {1.0, 2.0, 5.0});
  std::atomic<bool> stop{false};
  std::atomic<bool> started{false};
  std::thread writer([&] {
    const obs::ThreadRegistration registration;
    while (!stop.load(std::memory_order_relaxed)) {
      h.observe(1.5);
      started.store(true, std::memory_order_relaxed);
    }
  });
  // Race against a writer that is already observing, not one still
  // starting up.
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
  std::vector<obs::Histogram::Merged> views;
  views.reserve(2000);
  for (int round = 0; round < 2000; ++round) {
    h.reset();
    views.push_back(h.merged());
  }
  // Join before asserting: a fatal assertion returning with the writer
  // still joinable would terminate the whole test binary.
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::size_t round = 0; round < views.size(); ++round) {
    SCOPED_TRACE(round);
    const auto& m = views[round];
    std::uint64_t in_buckets = 0;
    for (const auto b : m.buckets) in_buckets += b;
    EXPECT_EQ(in_buckets, m.count);
    if (m.count > 0) {
      EXPECT_DOUBLE_EQ(m.min, 1.5);
      EXPECT_DOUBLE_EQ(m.max, 1.5);
    }
  }
}

TEST(ScopedRegistry, ChildLabelsExtendTheParent) {
  obs::MetricsRegistry parent(
      obs::MetricsRegistry::Labels{{"campaign", "unit"}});
  const auto child = parent.scoped({{"scenario", "ask_burst"}});
  child->counter("test.obs.scoped_counter").add(2);
  const auto samples = child->snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels, "campaign=unit,scenario=ask_burst");
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
}

TEST(ScopedRegistry, CohortAggregatesAcrossSessions) {
  obs::MetricsRegistry parent;
  std::vector<std::shared_ptr<obs::MetricsRegistry>> sessions;
  for (int j = 0; j < 4; ++j) {
    auto child = parent.scoped({{"scenario", std::to_string(j)}});
    // Scalar: one sample per session -> cohort percentiles over 1,2,3,4.
    child->gauge("session.final").set(static_cast<double>(j + 1));
    // Histogram: same bounds everywhere -> bucket-level merge.
    auto& h = child->histogram("session.latency", {1.0, 10.0, 100.0});
    h.observe(static_cast<double>(j + 1));
    h.observe(static_cast<double>((j + 1) * 10));
    sessions.push_back(std::move(child));
  }
  const auto cohorts = parent.aggregate_cohorts();
  const obs::CohortAggregate* final_agg = nullptr;
  const obs::CohortAggregate* latency_agg = nullptr;
  for (const auto& c : cohorts) {
    if (c.name == "session.final") final_agg = &c;
    if (c.name == "session.latency") latency_agg = &c;
  }
  ASSERT_NE(final_agg, nullptr);
  EXPECT_EQ(final_agg->sessions, 4u);
  EXPECT_EQ(final_agg->count, 4u);
  EXPECT_DOUBLE_EQ(final_agg->min, 1.0);
  EXPECT_DOUBLE_EQ(final_agg->max, 4.0);
  EXPECT_DOUBLE_EQ(final_agg->mean, 2.5);
  EXPECT_DOUBLE_EQ(final_agg->p50, 2.5);  // rank interpolation over 1..4

  ASSERT_NE(latency_agg, nullptr);
  EXPECT_EQ(latency_agg->sessions, 4u);
  EXPECT_EQ(latency_agg->count, 8u);
  EXPECT_DOUBLE_EQ(latency_agg->min, 1.0);
  EXPECT_DOUBLE_EQ(latency_agg->max, 40.0);
  EXPECT_GE(latency_agg->p95, latency_agg->p50);
  EXPECT_LE(latency_agg->p99, 40.0);

  // Expired sessions drop out of later aggregations.
  sessions.resize(2);
  const auto pruned = parent.aggregate_cohorts();
  for (const auto& c : pruned) {
    if (c.name == "session.final") {
      EXPECT_EQ(c.sessions, 2u);
    }
  }
}

TEST(ScopedRegistry, DroppedChildrenArePrunedWithoutAggregating) {
  // A parent that forks many short-lived children and never aggregates
  // (FleetService forks its cohort registries from the root) must not
  // keep a reference per child ever forked.
  obs::MetricsRegistry parent;
  std::vector<std::shared_ptr<obs::MetricsRegistry>> live;
  constexpr int kForks = 10000;
  for (int j = 0; j < kForks; ++j) {
    auto child = parent.scoped({{"session", std::to_string(j)}});
    child->gauge("session.index").set(static_cast<double>(j));
    if (j % 100 == 0) live.push_back(std::move(child));
  }
  ASSERT_EQ(live.size(), 100u);
  EXPECT_LE(parent.tracked_children(), 2 * live.size());

  // Pruning never drops a live child: the cohort view sees all of them.
  const auto cohorts = parent.aggregate_cohorts();
  ASSERT_EQ(cohorts.size(), 1u);
  EXPECT_EQ(cohorts[0].name, "session.index");
  EXPECT_EQ(cohorts[0].sessions, live.size());
  EXPECT_DOUBLE_EQ(cohorts[0].min, 0.0);
  EXPECT_DOUBLE_EQ(cohorts[0].max, static_cast<double>(kForks - 100));

  // With every child dropped the list stays at the prune floor's scale.
  live.clear();
  for (int j = 0; j < kForks; ++j) (void)parent.scoped({{"session", "x"}});
  EXPECT_LE(parent.tracked_children(), 64u);
  EXPECT_TRUE(parent.aggregate_cohorts().empty());
}

TEST(ScopedRegistry, PublishCohortsWritesPrefixedGauges) {
  obs::MetricsRegistry parent;
  const auto child = parent.scoped({{"scenario", "0"}});
  child->gauge("session.quality").set(0.75);
  parent.publish_cohorts("cohort.unit");
  bool saw_mean = false, saw_sessions = false;
  for (const auto& s : parent.snapshot()) {
    if (s.name == "cohort.unit.session.quality.mean") {
      saw_mean = true;
      EXPECT_DOUBLE_EQ(s.value, 0.75);
    }
    if (s.name == "cohort.unit.session.quality.sessions") {
      saw_sessions = true;
      EXPECT_DOUBLE_EQ(s.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_mean);
  EXPECT_TRUE(saw_sessions);
}

TEST(ScopedRegistry, PublishCohortsIntoForeignRegistry) {
  // The fleet layer aggregates an intermediate per-cohort registry's
  // children and publishes the result into the ROOT registry: the gauges
  // must land in `into`, and the intermediate registry must stay clean
  // (no cohort.* gauges feeding back into its own aggregation).
  obs::MetricsRegistry cohort;
  auto s0 = cohort.scoped({{"session", "0"}});
  auto s1 = cohort.scoped({{"session", "1"}});
  s0->gauge("session.recover_s").set(1.0);
  s1->gauge("session.recover_s").set(3.0);

  obs::MetricsRegistry root;
  cohort.publish_cohorts("cohort.fleet.nominal", root);

  double mean = -1.0, sessions = -1.0, min = -1.0, max = -1.0;
  for (const auto& s : root.snapshot()) {
    if (s.name == "cohort.fleet.nominal.session.recover_s.mean") mean = s.value;
    if (s.name == "cohort.fleet.nominal.session.recover_s.sessions")
      sessions = s.value;
    if (s.name == "cohort.fleet.nominal.session.recover_s.min") min = s.value;
    if (s.name == "cohort.fleet.nominal.session.recover_s.max") max = s.value;
  }
  EXPECT_DOUBLE_EQ(mean, 2.0);
  EXPECT_DOUBLE_EQ(sessions, 2.0);
  EXPECT_DOUBLE_EQ(min, 1.0);
  EXPECT_DOUBLE_EQ(max, 3.0);
  // The intermediate registry's own snapshot holds no published gauges.
  for (const auto& s : cohort.snapshot()) {
    EXPECT_TRUE(s.name.rfind("cohort.", 0) != 0)
        << "leaked into source registry: " << s.name;
  }
}

TEST(Json, RoundTripThroughDumpAndParse) {
  Value::Object obj;
  obj["name"] = "bench \"quoted\" \\ with\nnewline";
  obj["value"] = 42.5;
  obj["count"] = 7;
  obj["flag"] = true;
  obj["missing"] = nullptr;
  obj["list"] = Value::Array{1.0, 2.0, Value("three")};
  const Value original(std::move(obj));

  const std::string compact = original.dump();
  const Value reparsed = Value::parse(compact);
  EXPECT_EQ(reparsed.dump(), compact);
  EXPECT_EQ(reparsed.at("name").as_string(), "bench \"quoted\" \\ with\nnewline");
  EXPECT_DOUBLE_EQ(reparsed.at("value").as_double(), 42.5);
  EXPECT_TRUE(reparsed.at("flag").as_bool());
  EXPECT_TRUE(reparsed.at("missing").is_null());
  EXPECT_EQ(reparsed.at("list").size(), 3u);
  EXPECT_EQ(reparsed.at("list").at(2).as_string(), "three");

  // Pretty-printed output parses back to the same document.
  EXPECT_EQ(Value::parse(original.dump(2)).dump(), compact);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Value::parse("{"), obs::json::JsonError);
  EXPECT_THROW(Value::parse("[1,]"), obs::json::JsonError);
  EXPECT_THROW(Value::parse("{} trailing"), obs::json::JsonError);
  EXPECT_THROW(Value::parse("\"unterminated"), obs::json::JsonError);
  EXPECT_THROW(Value::parse("nul"), obs::json::JsonError);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json::number(3.0), "3");
}

#if IRONIC_OBS_ENABLED

TEST(Trace, NestedSpansRecordContainedCompleteEvents) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  {
    obs::Span outer("outer", "test");
    outer.arg("key", "value");
    {
      obs::Span inner("inner", "test");
    }
  }
  recorder.disable();

  const auto events = recorder.events();
  const obs::TraceEvent* outer_ev = nullptr;
  const obs::TraceEvent* inner_ev = nullptr;
  for (const auto& ev : events) {
    if (ev.name == "outer") outer_ev = &ev;
    if (ev.name == "inner") inner_ev = &ev;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  EXPECT_EQ(outer_ev->phase, 'X');
  EXPECT_EQ(inner_ev->phase, 'X');
  // Inner span starts no earlier and ends no later than the outer one.
  EXPECT_GE(inner_ev->ts_us, outer_ev->ts_us);
  EXPECT_LE(inner_ev->ts_us + inner_ev->dur_us, outer_ev->ts_us + outer_ev->dur_us);
  ASSERT_EQ(outer_ev->args.size(), 1u);
  EXPECT_EQ(outer_ev->args[0].first, "key");
  recorder.clear();
}

TEST(Trace, SpanEndIsIdempotentAndStopsTheClock) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  {
    obs::Span span("ended-early", "test");
    span.end();
    span.end();  // second end must not record a duplicate
  }
  recorder.disable();
  std::size_t hits = 0;
  for (const auto& ev : recorder.events()) {
    if (ev.name == "ended-early") ++hits;
  }
  EXPECT_EQ(hits, 1u);
  recorder.clear();
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.disable();
  {
    obs::Span span("ghost", "test");
  }
  recorder.instant_event("ghost-instant", "test");
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  recorder.instant_event("tick", "test", {{"n", "1"}});
  recorder.counter_event("level", 0.75);
  recorder.sim_span("phase", "test", 1e-6, 3e-6, {{"what", "charge"}});
  recorder.sim_instant("bit", "test", 2e-6);
  recorder.disable();

  std::ostringstream os;
  recorder.write_chrome_trace(os);
  const Value root = Value::parse(os.str());
  const auto& events = root.at("traceEvents").as_array();
  // 4 recorded + 2 process_name metadata events.
  ASSERT_GE(events.size(), 6u);

  bool saw_sim_pid = false, saw_metadata = false;
  for (const auto& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    EXPECT_GE(ev.at("ts").as_double(), 0.0);
    if (ev.at("name").as_string() == "phase") {
      saw_sim_pid = true;
      EXPECT_DOUBLE_EQ(ev.at("pid").as_double(), 2.0);  // simulation timeline
      EXPECT_DOUBLE_EQ(ev.at("ts").as_double(), 1.0);   // 1e-6 s -> 1 us
      EXPECT_DOUBLE_EQ(ev.at("dur").as_double(), 2.0);
    }
  }
  EXPECT_TRUE(saw_sim_pid);
  EXPECT_TRUE(saw_metadata);
  recorder.clear();
}

TEST(Trace, LogBridgeCountsStructuredEvents) {
  obs::install_log_bridge();
  auto& counter =
      obs::MetricsRegistry::instance().counter("log.events.test.component");
  const auto before = counter.value();
  // Silence the text path; the bridge sees the record regardless of level.
  util::Log::set_sink([](util::LogLevel, const std::string&) {});
  util::Log::event(util::LogLevel::kDebug, "test.component",
                   {{"k", "v"}, {"n", "3"}});
  util::Log::set_sink(nullptr);
  EXPECT_EQ(counter.value(), before + 1);
}

// The engine's registry counters and the per-run TransientStats are fed
// from the same increments; their deltas over one run must agree exactly.
TEST(Instrumentation, TransientCountersMatchStats) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto runs0 = registry.counter("spice.transient.runs").value();
  const auto acc0 = registry.counter("spice.transient.accepted_steps").value();
  const auto rej0 = registry.counter("spice.transient.rejected_steps").value();
  const auto newt0 = registry.counter("spice.transient.newton_iterations").value();
  const auto fac0 = registry.counter("spice.transient.factorizations").value();
  const auto sol0 = registry.counter("spice.transient.solves").value();
  const auto bp0 = registry.counter("spice.transient.breakpoint_hits").value();

  spice::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  // A pulse source gives the engine breakpoints to snap to.
  ckt.add<spice::VoltageSource>(
      "V1", in, spice::kGround,
      spice::Waveform::pulse(0.0, 1.0, 10e-6, 1e-6, 1e-6, 20e-6, 50e-6));
  ckt.add<spice::Resistor>("R1", in, out, 1e3);
  ckt.add<spice::Capacitor>("C1", out, spice::kGround, 1e-9);

  spice::TransientOptions opts;
  opts.t_stop = 100e-6;
  opts.dt_max = 1e-6;
  spice::TransientStats stats;
  spice::run_transient(ckt, opts, &stats);

  EXPECT_EQ(registry.counter("spice.transient.runs").value(), runs0 + 1);
  EXPECT_EQ(registry.counter("spice.transient.accepted_steps").value(),
            acc0 + stats.accepted_steps);
  EXPECT_EQ(registry.counter("spice.transient.rejected_steps").value(),
            rej0 + stats.rejected_steps);
  EXPECT_EQ(registry.counter("spice.transient.newton_iterations").value(),
            newt0 + stats.newton_iterations);
  EXPECT_EQ(registry.counter("spice.transient.factorizations").value(),
            fac0 + stats.factorizations);
  EXPECT_EQ(registry.counter("spice.transient.solves").value(),
            sol0 + stats.solves);
  EXPECT_EQ(registry.counter("spice.transient.breakpoint_hits").value(),
            bp0 + stats.breakpoint_hits);

  // The run itself produced sane stats. Every Newton iteration solves
  // once; the solver layer may skip factoring bit-identical matrices, so
  // factorizations can only lag solves.
  EXPECT_GT(stats.accepted_steps, 0u);
  EXPECT_GT(stats.breakpoint_hits, 0u);  // pulse edges were snapped
  EXPECT_EQ(stats.newton_iterations, stats.solves);
  EXPECT_GT(stats.factorizations, 0u);
  EXPECT_LE(stats.factorizations, stats.solves);
  EXPECT_GE(stats.max_newton_iterations, 1u);
}

TEST(Instrumentation, SnappedBreakpointsAreAlwaysRecorded) {
  // record_every large enough that decimation alone would skip the pulse
  // edge; the engine must still emit the snapped point.
  spice::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<spice::VoltageSource>(
      "V1", in, spice::kGround,
      spice::Waveform::pulse(0.0, 1.0, 50e-6, 1e-6, 1e-6, 100e-6, 1.0));
  ckt.add<spice::Resistor>("R1", in, out, 1e3);
  ckt.add<spice::Capacitor>("C1", out, spice::kGround, 1e-9);

  spice::TransientOptions opts;
  opts.t_stop = 60e-6;
  opts.dt_max = 1e-6;
  opts.record_every = 1000;  // would record almost nothing by phase alone
  spice::TransientStats stats;
  const auto res = spice::run_transient(ckt, opts, &stats);

  EXPECT_GT(stats.breakpoint_hits, 0u);
  bool recorded_edge = false;
  for (const double t : res.time()) {
    if (std::abs(t - 50e-6) < 1e-12) recorded_edge = true;
  }
  EXPECT_TRUE(recorded_edge);
  // The final point is recorded regardless of decimation phase.
  EXPECT_NEAR(res.time().back(), opts.t_stop, 1e-9);
}

TEST(RunReport, WritesParsableReportJson) {
  // Run in a scratch directory; keep env mutations local to this test.
  const std::string dir = ::testing::TempDir() + "obs_report_test";
  ASSERT_EQ(::setenv("IRONIC_REPORT_DIR", dir.c_str(), 1), 0);
  ::unsetenv("IRONIC_TRACE");
  ::unsetenv("IRONIC_METRICS");
  ::unsetenv("IRONIC_REPORT");

  std::string path;
  {
    obs::RunReport report("obs_unit");
    report.metric("answer", 42.0);
    report.note("mode", "unit-test");
    path = report.report_path();
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(report.write());
  }
  ::unsetenv("IRONIC_REPORT_DIR");

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  const Value root = Value::parse(ss.str());
  EXPECT_EQ(root.at("schema").as_string(), "ironic.run_report/1");
  EXPECT_EQ(root.at("name").as_string(), "obs_unit");
  EXPECT_FALSE(root.at("git_sha").as_string().empty());
  EXPECT_GE(root.at("wall_seconds").as_double(), 0.0);
  EXPECT_TRUE(root.at("obs_compiled_in").as_bool());
  EXPECT_DOUBLE_EQ(root.at("extras").at("answer").as_double(), 42.0);
  EXPECT_EQ(root.at("notes").at("mode").as_string(), "unit-test");
  EXPECT_TRUE(root.at("metrics").is_array());
}

TEST(RunReport, DescribesTheBuildAndHost) {
  const std::string dir = ::testing::TempDir() + "obs_report_build_test";
  ASSERT_EQ(::setenv("IRONIC_REPORT_DIR", dir.c_str(), 1), 0);
  ::unsetenv("IRONIC_TRACE");
  ::unsetenv("IRONIC_METRICS");
  ::unsetenv("IRONIC_REPORT");

  std::string path;
  {
    obs::RunReport report("obs_build");
    path = report.report_path();
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(report.write());
  }
  ::unsetenv("IRONIC_REPORT_DIR");

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  const Value root = Value::parse(ss.str());
  ASSERT_TRUE(root.contains("build"));
  const Value& build = root.at("build");
  ASSERT_TRUE(build.is_object());
  EXPECT_EQ(build.size(), 5u);
  for (const char* key : {"type", "compiler", "cxx_flags", "cpu_model"}) {
    ASSERT_TRUE(build.contains(key)) << key;
    EXPECT_TRUE(build.at(key).is_string()) << key;
  }
  // The build type and compiler are always known to CMake; the flags may
  // legitimately be empty, the CPU model "unknown" off Linux.
  EXPECT_FALSE(build.at("type").as_string().empty());
  EXPECT_NE(build.at("compiler").as_string(), "unknown");
  EXPECT_FALSE(build.at("cpu_model").as_string().empty());
  ASSERT_TRUE(build.contains("hardware_concurrency"));
  EXPECT_GE(build.at("hardware_concurrency").as_double(), 0.0);
}

TEST(RunReport, SuppressedWhenReportEnvIsZero) {
  ASSERT_EQ(::setenv("IRONIC_REPORT", "0", 1), 0);
  {
    obs::RunReport report("obs_suppressed");
    EXPECT_EQ(report.report_path(), "");
  }
  ::unsetenv("IRONIC_REPORT");
}

#else  // !IRONIC_OBS_ENABLED

TEST(Disabled, SpanAndTimerAreNoOps) {
  obs::Span span("noop", "test");
  span.arg("k", "v");
  span.end();
  SUCCEED();
}

#endif  // IRONIC_OBS_ENABLED

}  // namespace
