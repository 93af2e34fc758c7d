// Trace spans and a Chrome trace_event-format recorder.
//
// Two timelines share one trace file so it opens directly in
// chrome://tracing or Perfetto:
//   pid 1 "wall clock"      — RAII Span complete events, real time in us
//   pid 2 "simulation time" — sim_span/sim_instant events whose timestamps
//                             are *simulated* microseconds (charge-up
//                             phase, ASK/LSK bursts, bit decisions)
//
// Recording is off by default; when off, Span construction is a single
// relaxed atomic load and no clock is read. Enable programmatically with
// TraceRecorder::instance().enable() or via IRONIC_TRACE=<path> handled
// by obs::RunReport.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"  // IRONIC_OBS_ENABLED / kEnabled

namespace ironic::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';   // 'X' complete, 'i' instant, 'C' counter,
                      // 's'/'f' flow start/finish
  double ts_us = 0.0;
  double dur_us = 0.0;  // complete events only
  int pid = 1;
  // Chrome-trace thread track: obs::thread_index() of the recording
  // thread for wall-clock events, 1 for the simulation timeline.
  int tid = 1;
  std::uint64_t flow_id = 0;  // flow events only; pairs 's' with 'f'
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Microseconds on the wall-clock timeline (steady clock, process epoch).
  double now_us() const;

  // Wall-clock events (pid 1). `duration_event` timestamps are supplied by
  // the caller (Span does this).
  void complete_event(std::string name, std::string category, double ts_us,
                      double dur_us,
                      std::vector<std::pair<std::string, std::string>> args = {});
  void instant_event(std::string name, std::string category,
                     std::vector<std::pair<std::string, std::string>> args = {});
  void counter_event(std::string name, double value);

  // Flow events tie spans on different threads together in the viewer:
  // emit flow_begin on the dispatching thread and flow_end (binding
  // point "enclosing slice") inside the span that executes the work,
  // with the same `id`. The sweep engine uses one flow per point so a
  // point's dispatch and execution connect across pool threads.
  void flow_begin(std::string name, std::string category, std::uint64_t id);
  void flow_end(std::string name, std::string category, std::uint64_t id);

  // Simulation-timeline events (pid 2); timestamps are simulated seconds,
  // converted to microseconds for the trace viewer.
  void sim_span(std::string name, std::string category, double t_start_s,
                double t_end_s,
                std::vector<std::pair<std::string, std::string>> args = {});
  void sim_instant(std::string name, std::string category, double t_s,
                   std::vector<std::pair<std::string, std::string>> args = {});

  std::size_t event_count() const;
  std::vector<TraceEvent> events() const;  // copy, for tests
  void clear();

  // Emit the Chrome trace_event JSON ({"traceEvents":[...]}) including
  // process-name metadata for the two timelines.
  void write_chrome_trace(std::ostream& os) const;
  // Convenience: write to a file; returns false (and logs) on I/O error.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  TraceRecorder();
  void push(TraceEvent ev);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

#if IRONIC_OBS_ENABLED

// RAII wall-clock span: records a complete event on destruction when the
// recorder was enabled at construction.
class Span {
 public:
  explicit Span(std::string name, std::string category = "app");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  // Attach a key/value argument shown in the trace viewer.
  void arg(std::string key, std::string value);
  // End the span now instead of at scope exit (idempotent).
  void end();

 private:
  std::string name_;
  std::string category_;
  double start_us_ = 0.0;
  bool active_ = false;
  std::vector<std::pair<std::string, std::string>> args_;
};

#else  // !IRONIC_OBS_ENABLED — zero-cost stand-in

class Span {
 public:
  explicit Span(std::string, std::string = {}) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void arg(std::string, std::string) {}
  void end() {}
};

#endif  // IRONIC_OBS_ENABLED

// Route util::Log::event(...) structured records into the observability
// subsystem: each event becomes a trace instant (when recording) and
// bumps the "log.events.<component>" counter. Idempotent.
void install_log_bridge();

}  // namespace ironic::obs
