// Streaming JSONL telemetry sink: a bounded MPSC ring buffer drained by
// a background thread into a file (or stdout). Producers never block —
// when the ring is full the line is dropped and obs.telemetry.dropped
// is incremented, so a slow disk can never stall the simulation hot
// path. The drainer batches writes and fflushes once per batch; close()
// (and the destructor, for flush-on-exit) drains whatever is queued
// before the stream goes away.
//
// Wire-ins: metrics snapshots (emit_metrics_snapshot), structured log
// events (the trace log bridge forwards util::Log events here when the
// sink is open), fault::Session state transitions, and ad-hoc
// emit_event calls. Every line is one self-contained JSON object with
// at least {"ts_us":..., "tid":..., "stream":..., "event":...} so
// `telemetry_tail` can filter without schema knowledge.
//
// Counters (root registry): obs.telemetry.emitted / dropped / written /
// flushes. They are final once close() has returned, which is why the
// runners close the sink explicitly before the run report snapshots the
// registry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace ironic::obs {

// One telemetry line, without the trailing newline:
// {"ts_us":...,"tid":...,"stream":stream,"event":event,...fields}.
// ts_us counts microseconds since the first telemetry touch in this
// process. The fleet run journal writes its records in this format too.
std::string render_event(const std::string& stream, const std::string& event,
                         json::Value::Object fields = {});

// Ring capacity in lines (power of two). At ~200 B/line this is ~800 KiB
// of queued telemetry before drops begin.
inline constexpr std::size_t kTelemetryRingCapacity = 4096;

class TelemetrySink {
 public:
  // Process-wide sink used by all instrumentation wire-ins.
  static TelemetrySink& instance();

  TelemetrySink();
  ~TelemetrySink();  // flush-on-exit: equivalent to close()
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  // Open the output stream ("-" = stdout) and start the drainer.
  // Returns false (sink stays closed) if the path cannot be opened —
  // the runners map that to exit code 2. Reopening closes the previous
  // stream first.
  bool open(const std::string& path);
  bool is_open() const { return accepting_.load(std::memory_order_acquire); }

  // Stop accepting, drain the ring, flush, and close the stream. After
  // close() returns the obs.telemetry.* counters are final. Safe to
  // call repeatedly; a no-op when never opened.
  void close();

  // Enqueue one pre-rendered JSON line (no trailing newline). Returns
  // true if queued; false when the sink is closed or the runtime kill
  // switch is off (not counted), or the ring is full (counted in
  // obs.telemetry.dropped). Never blocks.
  bool emit(std::string line);

  // Render the event (render_event) and emit it.
  bool emit_event(const std::string& stream, const std::string& event,
                  json::Value::Object fields = {});

  // Stream a registry snapshot, one line per metric on stream
  // "metrics" (labels included for scoped registries). Returns the
  // number of lines queued (drops excluded).
  std::size_t emit_metrics_snapshot(const MetricsRegistry& registry);

  // Test hook: while paused the drainer parks without popping, so tests
  // can fill the ring to overflow deterministically. Unpausing (or
  // close()) drains normally.
  void set_paused_for_test(bool paused) {
    paused_.store(paused, std::memory_order_release);
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    std::string line;
  };

  bool try_push(std::string&& line);
  bool try_pop(std::string& out);
  void drain_loop();
  std::size_t drain_available_locked();
  void close_locked();

  std::vector<Slot> ring_;
  std::atomic<std::size_t> head_{0};  // multi-producer cursor
  std::size_t tail_ = 0;              // drainer-private cursor

  std::mutex control_mutex_;  // open/close/stream-pointer transitions
  std::FILE* out_ = nullptr;
  bool owns_file_ = false;
  std::thread drainer_;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> paused_{false};

  Counter& emitted_;
  Counter& dropped_;
  Counter& written_;
  Counter& flushes_;
};

}  // namespace ironic::obs
