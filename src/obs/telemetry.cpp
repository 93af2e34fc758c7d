#include "src/obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace ironic::obs {

namespace {

// Wall-ish timestamp for telemetry rows: microseconds since the first
// telemetry touch in this process (steady clock, so rows order
// correctly even if the system clock steps).
std::int64_t telemetry_ts_us() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string render_event(const std::string& stream, const std::string& event,
                         json::Value::Object fields) {
  json::Value::Object row;
  row["ts_us"] = static_cast<double>(telemetry_ts_us());
  row["tid"] = static_cast<std::uint64_t>(thread_index());
  row["stream"] = stream;
  row["event"] = event;
  for (auto& [key, value] : fields) row[key] = std::move(value);
  return json::Value(std::move(row)).dump();
}

TelemetrySink& TelemetrySink::instance() {
  // Constructed after (and therefore destroyed before) the metrics
  // registry the counter references point into.
  static TelemetrySink sink;
  return sink;
}

TelemetrySink::TelemetrySink()
    : ring_(kTelemetryRingCapacity),
      emitted_(MetricsRegistry::instance().counter("obs.telemetry.emitted")),
      dropped_(MetricsRegistry::instance().counter("obs.telemetry.dropped")),
      written_(MetricsRegistry::instance().counter("obs.telemetry.written")),
      flushes_(MetricsRegistry::instance().counter("obs.telemetry.flushes")) {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
  (void)telemetry_ts_us();  // pin the epoch
}

TelemetrySink::~TelemetrySink() { close(); }

bool TelemetrySink::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  close_locked();
  std::FILE* out = nullptr;
  bool owns = false;
  if (path == "-") {
    out = stdout;
  } else {
    out = std::fopen(path.c_str(), "w");
    if (!out) return false;
    owns = true;
  }
  out_ = out;
  owns_file_ = owns;
  running_.store(true, std::memory_order_release);
  drainer_ = std::thread([this] { drain_loop(); });
  accepting_.store(true, std::memory_order_release);
  return true;
}

void TelemetrySink::close() {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  close_locked();
}

void TelemetrySink::close_locked() {
  if (!running_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  if (drainer_.joinable()) drainer_.join();
  // Final drain on this thread: pick up lines that raced past the
  // accepting_ check while the drainer was shutting down.
  drain_available_locked();
  if (out_) {
    std::fflush(out_);
    flushes_.add(1);
    if (owns_file_) std::fclose(out_);
  }
  out_ = nullptr;
  owns_file_ = false;
}

bool TelemetrySink::try_push(std::string&& line) {
  const std::size_t mask = ring_.size() - 1;
  std::size_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = ring_[pos & mask];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) -
                     static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.line = std::move(line);
        slot.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // ring full
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool TelemetrySink::try_pop(std::string& out) {
  const std::size_t mask = ring_.size() - 1;
  Slot& slot = ring_[tail_ & mask];
  const std::size_t seq = slot.seq.load(std::memory_order_acquire);
  if (static_cast<std::intptr_t>(seq) -
          static_cast<std::intptr_t>(tail_ + 1) <
      0) {
    return false;  // empty
  }
  out = std::move(slot.line);
  slot.seq.store(tail_ + ring_.size(), std::memory_order_release);
  ++tail_;
  return true;
}

std::size_t TelemetrySink::drain_available_locked() {
  std::size_t n = 0;
  std::string line;
  while (try_pop(line)) {
    if (out_) {
      std::fwrite(line.data(), 1, line.size(), out_);
      std::fputc('\n', out_);
      written_.add(1);
    }
    ++n;
  }
  return n;
}

void TelemetrySink::drain_loop() {
  // Idle sleep backs off 200 us -> 20 ms: a quiet stream costs the
  // producers (who may share the only core) almost no context switches,
  // while a burst snaps the drainer back to its fastest cadence.
  constexpr auto kMinIdle = std::chrono::microseconds(200);
  constexpr auto kMaxIdle = std::chrono::microseconds(20000);
  auto idle = kMinIdle;
  std::string line;
  for (;;) {
    if (paused_.load(std::memory_order_acquire)) {
      if (!running_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(kMinIdle);
      continue;
    }
    std::size_t batch = 0;
    while (try_pop(line)) {
      std::fwrite(line.data(), 1, line.size(), out_);
      std::fputc('\n', out_);
      ++batch;
    }
    if (batch > 0) {
      std::fflush(out_);
      written_.add(batch);
      flushes_.add(1);
      idle = kMinIdle;
      continue;  // more may have arrived while writing
    }
    if (!running_.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(idle);
    idle = std::min(idle * 2, kMaxIdle);
  }
}

bool TelemetrySink::emit(std::string line) {
  // The runtime kill switch silences telemetry too, so disabling obs at
  // runtime is a faithful proxy for compiling it out.
  if (!runtime_enabled()) return false;
  if (!accepting_.load(std::memory_order_acquire)) return false;
  if (!try_push(std::move(line))) {
    dropped_.add(1);
    return false;
  }
  emitted_.add(1);
  return true;
}

bool TelemetrySink::emit_event(const std::string& stream,
                               const std::string& event,
                               json::Value::Object fields) {
  if (!runtime_enabled()) return false;
  if (!accepting_.load(std::memory_order_acquire)) return false;
  return emit(render_event(stream, event, std::move(fields)));
}

std::size_t TelemetrySink::emit_metrics_snapshot(
    const MetricsRegistry& registry) {
  if (!runtime_enabled()) return 0;
  if (!accepting_.load(std::memory_order_acquire)) return 0;
  std::size_t queued = 0;
  for (const auto& s : registry.snapshot()) {
    json::Value::Object row;
    row["name"] = s.name;
    row["type"] = s.type;
    row["value"] = s.value;
    if (!s.labels.empty()) row["labels"] = s.labels;
    if (s.type == "histogram") {
      row["count"] = static_cast<std::uint64_t>(s.count);
      row["min"] = s.min;
      row["max"] = s.max;
      row["p50"] = s.p50;
      row["p95"] = s.p95;
      row["p99"] = s.p99;
    }
    if (emit(render_event("metrics", "sample", std::move(row)))) ++queued;
  }
  return queued;
}

}  // namespace ironic::obs
