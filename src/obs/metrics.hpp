// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, sharded per thread so recording under the exec
// work-stealing pool is a relaxed store into a thread-private cache line
// with no cross-core CAS traffic. Shards are merged on snapshot.
// Registration takes a mutex; recording into an already obtained counter
// or gauge is lock-free, and a histogram observation takes its own
// shard's spin lock, uncontended unless a snapshot or reset holds it.
//
// Registries can be forked per scenario/session with labels
// (`registry.scoped({{"scenario", "ask_burst"}})`) and aggregated back
// into cohort views (count/sum/min/max/p50/p95/p99 across sessions) —
// the aggregation substrate the fleet subsystem consumes.
//
// Compile-time gate: IRONIC_OBS_ENABLED (default 1, see CMake option of
// the same name). When 0, `ironic::obs::kEnabled` is false and the
// instrumented call sites in spice/core/comms/patch compile away; the
// registry itself stays available so code linking against it still
// builds. A separate *runtime* kill switch (`set_runtime_enabled(false)`)
// turns every recording call into an early return — bench_obs_overhead
// uses it as the in-process proxy for a compiled-out build.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#ifndef IRONIC_OBS_ENABLED
#define IRONIC_OBS_ENABLED 1
#endif

namespace ironic::obs {

// Compile-time observability switch; instrumentation sites test this with
// `if constexpr` so a disabled build carries zero overhead.
inline constexpr bool kEnabled = IRONIC_OBS_ENABLED != 0;

// Per-thread shard count (power of two). Threads hash onto slots by a
// monotonically assigned ordinal, so the first kMetricShards threads get
// private slots; beyond that, slots are shared but stay correct (every
// shard update is atomic). 16 slots x 64 B = 1 KiB per scalar metric.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {

// Runtime kill switch (see set_runtime_enabled below). Relaxed: recording
// sites may observe a toggle late; that is fine for a diagnostics switch.
inline std::atomic<bool> g_runtime_enabled{true};
inline bool runtime_on() {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}

// Stable per-thread ordinal, assigned on first use (main thread usually
// gets 0). Never recycled: ordinals identify threads in traces.
std::size_t assign_thread_ordinal();
inline std::size_t thread_ordinal() {
  thread_local const std::size_t ordinal = assign_thread_ordinal();
  return ordinal;
}
inline std::size_t shard_slot() {
  return thread_ordinal() & (kMetricShards - 1);
}

// One cache line per shard so two hot threads never false-share.
struct alignas(64) ShardU64 {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) ShardF64 {
  std::atomic<double> v{0.0};
};

}  // namespace detail

// Runtime recording switch: when off, Counter::add / Gauge::set / add /
// set_max / Histogram::observe return immediately without touching their
// storage. Reads (value(), snapshot()) are unaffected. Defaults to on.
inline bool runtime_enabled() { return detail::runtime_on(); }
void set_runtime_enabled(bool on);

// 1-based stable ordinal for the calling thread; the trace recorder uses
// it as the Chrome-trace tid so spans from different pool workers land on
// separate tracks.
std::size_t thread_index();

// Thread-registration hook for long-lived workers (exec pool threads):
// constructing one pins the thread's metric shard slot and trace tid up
// front, so the first recording on the hot path does not pay the
// one-time ordinal assignment.
class ThreadRegistration {
 public:
  ThreadRegistration() { (void)thread_index(); }
  ThreadRegistration(const ThreadRegistration&) = delete;
  ThreadRegistration& operator=(const ThreadRegistration&) = delete;
};

// Monotonic event count. `add` is a relaxed atomic increment into the
// calling thread's shard; `value` sums the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!detail::runtime_on()) return;
    cells_[detail::shard_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardU64, kMetricShards> cells_;
};

// Last-written instantaneous value plus sharded deltas: `set` stores the
// base, `add` accumulates into the calling thread's shard, `value` is
// base + the shard sum. A `set` concurrent with `add`s is a benign race
// (the add may land before or after the rebase), same contract as the
// CAS-based predecessor.
class Gauge {
 public:
  void set(double v);
  // Lock-free increment; per-shard, so concurrent adds from pool workers
  // do not contend on one cache line.
  void add(double d);
  // Keep the larger of the current combined value and the offered one.
  void set_max(double v);
  double value() const {
    double total = base_.load(std::memory_order_relaxed);
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() { set(0.0); }

 private:
  std::atomic<double> base_{0.0};
  std::array<detail::ShardF64, kMetricShards> cells_;
};

// A sum whose value does not depend on the order of its terms: a signed
// fixed-point number at 2^-128 in four 64-bit words, two's complement,
// least significant first. A finite term of magnitude in [2^-76, 2^63)
// converts exactly, a smaller one truncates toward zero at 2^-128, so
// adding terms (or other sums) is exact integer addition, and value()
// rounds the total to the nearest double once. Non-finite terms, and
// finite ones of 2^63 or more, add into a plain double beside it, which
// keeps their IEEE behaviour (+inf, NaN) in value().
class ExactSum {
 public:
  void add(double v);
  void add(const ExactSum& other);
  double value() const;

 private:
  void add_words(const std::array<std::uint64_t, 4>& x);

  std::array<std::uint64_t, 4> words_{};
  double outside_ = 0.0;  // terms the fixed-point range does not hold
};

// Fixed-boundary histogram: `bounds` are the inclusive upper edges of the
// buckets; one overflow bucket catches everything above the last edge.
// Observation updates the calling thread's lazily allocated shard (bucket,
// count, exact sum, min and max under the shard's spin lock, which is
// uncontended when ordinals do not collide). Which shard an observation
// lands in depends on the thread that made it, so the sum is an ExactSum:
// the same observations give the same sum() and mean() bits however
// they were spread over threads and in whatever order.
//
// Snapshot coherence contract: merge-style readers (count/sum/min/max/
// percentile/bucket_counts/merged) and reset() hold every shard's lock
// at once, and observe() holds its shard's for the whole observation. A
// reader therefore sees each observation entirely or not at all (the
// bucket total always equals the count), and the state entirely before
// or entirely after a concurrent reset.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  void observe(double v);

  // A coherent merged view across shards (see the class contract).
  struct Merged {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    ExactSum exact_sum;  // for merging histograms without rounding
    double sum = 0.0;    // exact_sum.value()
    double min = 0.0;    // 0 when empty
    double max = 0.0;    // 0 when empty
  };
  Merged merged() const;

  std::uint64_t count() const { return merged().count; }
  double sum() const { return merged().sum; }
  double mean() const;
  double min() const { return merged().min; }
  double max() const { return merged().max; }
  // Percentile estimate (p in [0, 100]) by linear interpolation inside
  // the containing bucket; exact at observed min/max (p0 returns the
  // observed minimum, p100 the observed maximum).
  double percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const { return merged().buckets; }
  // Zero all shards, indivisibly for concurrent readers and observers.
  void reset();

 private:
  struct Shard;
  class LockedShards;
  Shard& shard();

  std::vector<double> bounds_;
  std::array<std::atomic<Shard*>, kMetricShards> shards_{};
};

// A flat snapshot row, used for the JSONL dump and the run reports.
struct MetricSample {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram"
  std::string labels;  // "k=v,k=v" from the owning registry ("" = root)
  double value = 0.0;  // counter/gauge value; histogram mean
  // Histogram extras (count == 0 for the scalar kinds).
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// One metric aggregated across every live scoped child of a registry:
// the per-cohort view (count/sum/min/max/p50/p95/p99 over sessions).
// For histograms the child buckets are merged, so percentiles are as
// exact as a single histogram's; for counters/gauges the per-session
// scalar values form the sample set and percentiles are exact.
struct CohortAggregate {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram"
  std::uint64_t sessions = 0;  // scoped registries reporting this metric
  std::uint64_t count = 0;     // histogram: total observations; else == sessions
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  // Label set attached to a registry, rendered as "k=v,k=v" in dumps.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  // The process-wide root registry used by all instrumentation.
  static MetricsRegistry& instance();

  // Standalone registries are allowed (benches, scoped sessions);
  // `scoped` is the usual way to create one.
  MetricsRegistry() = default;
  explicit MetricsRegistry(Labels labels) : labels_(std::move(labels)) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  const Labels& labels() const { return labels_; }
  std::string label_string() const;

  // Fork a child registry carrying this registry's labels plus `extra`.
  // The child is independent storage (its metrics do not feed the
  // parent's); the parent keeps a weak reference so aggregate_cohorts()
  // can fold live children into cohort views. Children may outlive the
  // parent's interest and expire naturally; scoped() drops the expired
  // references whenever the list has doubled since it last did, so a
  // parent that never aggregates holds O(live children) of them.
  std::shared_ptr<MetricsRegistry> scoped(Labels extra);
  // Child references held, live or expired (bounded, see scoped()).
  std::size_t tracked_children() const;

  // Aggregate every metric across the live scoped children (expired
  // children are pruned). Ordered by metric name.
  std::vector<CohortAggregate> aggregate_cohorts() const;
  // Fold aggregate_cohorts() into this registry as gauges named
  // `<prefix>.<metric>.<stat>` (stat in sessions/count/sum/min/max/mean/
  // p50/p95/p99), so run reports and trace_validate --require can pin
  // the cohort views.
  void publish_cohorts(const std::string& prefix);
  // Same, but the gauges land in `into` — the fleet layer aggregates an
  // intermediate per-cohort registry's children and publishes the result
  // into the root registry, so every cohort's stats appear in one run
  // report without the intermediate registries feeding each other.
  void publish_cohorts(const std::string& prefix, MetricsRegistry& into) const;

  // Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // `bounds` is used only on first creation; pass {} for the default
  // geometric ladder (1, 2, 5 per decade across 1e-9..1e9).
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  std::vector<MetricSample> snapshot() const;
  // One JSON object per line: {"name":..., "type":..., "value":...}.
  void write_jsonl(std::ostream& os) const;

  // Zero every registered metric IN PLACE. References handed out by
  // earlier lookups stay valid (the engine and thread pool cache handles
  // for their hot paths, so entries must never be deleted while workers
  // may still be recording).
  void reset();

 private:
  Labels labels_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  mutable std::mutex children_mutex_;
  mutable std::vector<std::weak_ptr<MetricsRegistry>> children_;
  std::size_t prune_at_ = 0;  // scoped() prunes when children_ reaches this
};

// Default histogram bucket edges: 1-2-5 ladder spanning 1e-9 .. 1e9.
std::vector<double> default_histogram_bounds();

}  // namespace ironic::obs
