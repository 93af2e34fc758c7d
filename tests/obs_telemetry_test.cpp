// Streaming-telemetry and profiler coverage: sink delivery/overflow/
// unwritable-path contracts, zone nesting and threading, and the
// trace-recorder flow events that tie sweep points across pool threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"

namespace {

using namespace ironic;
using obs::json::Value;

#if IRONIC_OBS_ENABLED

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "/ironic_obs_telemetry_" + tag + ".jsonl";
}

std::vector<Value> read_jsonl(const std::string& path) {
  std::ifstream is(path);
  std::vector<Value> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) rows.push_back(Value::parse(line));
  }
  return rows;
}

TEST(TelemetrySink, DeliversWellFormedJsonLines) {
  const std::string path = temp_path("deliver");
  auto& sink = obs::TelemetrySink::instance();
  ASSERT_TRUE(sink.open(path));
  EXPECT_TRUE(sink.is_open());

  obs::json::Value::Object fields;
  fields["quality"] = 0.5;
  EXPECT_TRUE(sink.emit_event("test.stream", "unit_event", std::move(fields)));
  EXPECT_TRUE(sink.emit_event("test.stream", "second"));
  sink.close();
  EXPECT_FALSE(sink.is_open());

  const auto rows = read_jsonl(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("stream").as_string(), "test.stream");
  EXPECT_EQ(rows[0].at("event").as_string(), "unit_event");
  EXPECT_DOUBLE_EQ(rows[0].at("quality").as_double(), 0.5);
  EXPECT_GE(rows[0].at("tid").as_double(), 1.0);
  EXPECT_GE(rows[1].at("ts_us").as_double(), rows[0].at("ts_us").as_double());
  std::remove(path.c_str());
}

TEST(TelemetrySink, ClosedSinkAcceptsNothing) {
  auto& sink = obs::TelemetrySink::instance();
  sink.close();
  EXPECT_FALSE(sink.emit_event("test.stream", "into_the_void"));
}

TEST(TelemetrySink, OpenFailsOnUnwritablePathAndStaysClosed) {
  auto& sink = obs::TelemetrySink::instance();
  EXPECT_FALSE(sink.open("/nonexistent-dir-for-obs-test/t.jsonl"));
  EXPECT_FALSE(sink.is_open());
  EXPECT_FALSE(sink.emit_event("test.stream", "dropped_on_floor"));
}

TEST(TelemetrySink, OverflowDropsAndCountsInsteadOfBlocking) {
  const std::string path = temp_path("overflow");
  auto& sink = obs::TelemetrySink::instance();
  auto& registry = obs::MetricsRegistry::instance();
  ASSERT_TRUE(sink.open(path));
  sink.set_paused_for_test(true);  // park the drainer so the ring fills

  const auto dropped_before =
      registry.counter("obs.telemetry.dropped").value();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  // Two rings' worth: with the drainer parked the first ~capacity lines
  // queue and the rest must be dropped without blocking.
  for (std::size_t i = 0; i < 2 * obs::kTelemetryRingCapacity; ++i) {
    if (sink.emit_event("test.stream", "flood")) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(accepted, obs::kTelemetryRingCapacity);
  EXPECT_EQ(registry.counter("obs.telemetry.dropped").value() - dropped_before,
            rejected);

  sink.set_paused_for_test(false);
  sink.close();
  // Everything accepted was eventually written (close drains fully).
  EXPECT_EQ(read_jsonl(path).size(), accepted);
  std::remove(path.c_str());
}

TEST(TelemetrySink, ConcurrentProducersLoseNothingBelowCapacity) {
  const std::string path = temp_path("mpsc");
  auto& sink = obs::TelemetrySink::instance();
  ASSERT_TRUE(sink.open(path));
  constexpr int kThreads = 4;
  constexpr int kEvents = 200;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&sink, t] {
      const obs::ThreadRegistration registration;
      for (int i = 0; i < kEvents; ++i) {
        obs::json::Value::Object fields;
        fields["producer"] = static_cast<std::uint64_t>(t);
        fields["seq"] = static_cast<std::uint64_t>(i);
        sink.emit_event("test.stream", "mpsc", std::move(fields));
      }
    });
  }
  for (auto& p : producers) p.join();
  sink.close();
  // The drainer keeps up with this rate, so nothing should drop; every
  // line parses and carries its producer tag.
  const auto rows = read_jsonl(path);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(kThreads) * kEvents);
  for (const auto& row : rows) {
    EXPECT_LT(row.at("producer").as_double(), kThreads);
  }
  std::remove(path.c_str());
}

TEST(TelemetrySink, MetricsSnapshotRowsCarryLabelsAndPercentiles) {
  const std::string path = temp_path("snapshot");
  auto& sink = obs::TelemetrySink::instance();
  ASSERT_TRUE(sink.open(path));

  obs::MetricsRegistry scoped(
      obs::MetricsRegistry::Labels{{"scenario", "unit"}});
  scoped.counter("test.obs.snap.calls").add(3);
  scoped.histogram("test.obs.snap.latency", {1.0, 10.0}).observe(2.0);
  EXPECT_EQ(sink.emit_metrics_snapshot(scoped), 2u);
  sink.close();

  bool saw_hist = false;
  for (const auto& row : read_jsonl(path)) {
    EXPECT_EQ(row.at("stream").as_string(), "metrics");
    EXPECT_EQ(row.at("labels").as_string(), "scenario=unit");
    if (row.at("type").as_string() == "histogram") {
      saw_hist = true;
      EXPECT_DOUBLE_EQ(row.at("count").as_double(), 1.0);
      EXPECT_TRUE(row.contains("p99"));
    }
  }
  EXPECT_TRUE(saw_hist);
  std::remove(path.c_str());
}

TEST(TelemetrySink, CloseFlushesLinesQueuedOnAbnormalPath) {
  // An error exit calls close() while lines may still sit in the ring
  // (the drainer can even be parked). close() must drain them to disk —
  // the flush-on-abnormal-path contract the runners' error returns rely
  // on.
  const std::string path = temp_path("abnormal");
  auto& sink = obs::TelemetrySink::instance();
  ASSERT_TRUE(sink.open(path));
  sink.set_paused_for_test(true);  // simulate a drainer that never ran
  constexpr std::size_t kLines = 64;
  for (std::size_t i = 0; i < kLines; ++i) {
    obs::json::Value::Object fields;
    fields["seq"] = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(sink.emit_event("test.stream", "pending", std::move(fields)));
  }
  // No unpause: close() itself must recover every queued line.
  sink.close();
  const auto rows = read_jsonl(path);
  ASSERT_EQ(rows.size(), kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    EXPECT_DOUBLE_EQ(rows[i].at("seq").as_double(), static_cast<double>(i));
  }
  std::remove(path.c_str());
}

TEST(Profiler, NestedZonesSplitInclusiveAndExclusive) {
  obs::profiler_reset();
  {
    PROF_ZONE("test.prof.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      PROF_ZONE("test.prof.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const auto zones = obs::profiler_snapshot();
  const obs::ZoneReport* outer = nullptr;
  const obs::ZoneReport* inner = nullptr;
  for (const auto& z : zones) {
    if (z.name == "test.prof.outer") outer = &z;
    if (z.name == "test.prof.inner") inner = &z;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(inner->calls, 1u);
  // Outer includes inner; outer exclusive excludes it.
  EXPECT_GE(outer->inclusive_ns, inner->inclusive_ns);
  EXPECT_LE(outer->exclusive_ns, outer->inclusive_ns);
  EXPECT_GE(outer->inclusive_ns - outer->exclusive_ns,
            inner->inclusive_ns / 2);
  // Both slept ~5 ms; wide bounds absorb scheduler noise.
  EXPECT_GE(inner->inclusive_ns, 1'000'000u);
  EXPECT_GE(outer->inclusive_ns, 2'000'000u);
}

TEST(Profiler, CallsAreExactUnderSampling) {
  obs::profiler_reset();
  constexpr std::uint64_t kCalls = 10000;  // far past kProfExactCalls
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    PROF_ZONE("test.prof.hot");
  }
  for (const auto& z : obs::profiler_snapshot()) {
    if (z.name == "test.prof.hot") {
      EXPECT_EQ(z.calls, kCalls);
      EXPECT_LE(z.exclusive_ns, z.inclusive_ns + 1);
      return;
    }
  }
  FAIL() << "zone test.prof.hot missing from snapshot";
}

TEST(Profiler, CountsThreadsSeparately) {
  obs::profiler_reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([] {
      const obs::ThreadRegistration registration;
      PROF_ZONE("test.prof.threads");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& z : obs::profiler_snapshot()) {
    if (z.name == "test.prof.threads") {
      EXPECT_EQ(z.calls, 3u);
      EXPECT_EQ(z.threads, 3u);
      return;
    }
  }
  FAIL() << "zone test.prof.threads missing from snapshot";
}

TEST(Profiler, RuntimeKillSwitchDisarmsZones) {
  obs::profiler_reset();
  obs::set_runtime_enabled(false);
  {
    PROF_ZONE("test.prof.disarmed");
  }
  obs::set_runtime_enabled(true);
  for (const auto& z : obs::profiler_snapshot()) {
    EXPECT_NE(z.name, "test.prof.disarmed");
  }
}

TEST(Profiler, MirrorsZonesIntoRegistryGauges) {
  obs::profiler_reset();
  {
    PROF_ZONE("test.prof.mirrored");
  }
  auto& registry = obs::MetricsRegistry::instance();
  obs::profiler_mirror_to_registry(registry);
  bool saw_calls = false;
  for (const auto& s : registry.snapshot()) {
    if (s.name == "prof.test.prof.mirrored.calls") {
      saw_calls = true;
      EXPECT_GE(s.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_calls);
}

TEST(TraceFlow, FlowEventsCarryIdsAndBindingPoint) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  recorder.flow_begin("unit.flow", "test", 42);
  recorder.flow_end("unit.flow", "test", 42);
  recorder.disable();

  std::ostringstream os;
  recorder.write_chrome_trace(os);
  recorder.clear();
  const Value root = Value::parse(os.str());
  bool saw_begin = false, saw_end = false;
  for (const auto& ev : root.at("traceEvents").as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "s") {
      saw_begin = true;
      EXPECT_DOUBLE_EQ(ev.at("id").as_double(), 42.0);
    } else if (ph == "f") {
      saw_end = true;
      EXPECT_DOUBLE_EQ(ev.at("id").as_double(), 42.0);
      EXPECT_EQ(ev.at("bp").as_string(), "e");  // bind to enclosing slice
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

#else  // !IRONIC_OBS_ENABLED

TEST(DisabledTelemetry, ProfilerStubsReturnEmpty) {
  PROF_ZONE("noop");
  EXPECT_TRUE(obs::profiler_snapshot().empty());
  obs::profiler_reset();
  SUCCEED();
}

#endif  // IRONIC_OBS_ENABLED

}  // namespace
