// Subsystem wall-time profiler: scoped PROF_ZONE("spice.lu_factor")
// zones aggregate inclusive and exclusive time per zone per thread, so
// a run report can answer "87 ms of 165 ms went to LU" as a first-class
// breakdown instead of a one-off measurement.
//
// Zone naming convention: "<subsystem>.<operation>" with the subsystem
// matching the source directory (spice.stamp, spice.lu_factor,
// spice.lu_solve, spice.newton, comms.exchange, exec.sweep_point).
//
// Cost model: a timed zone entry reads a TSC-class clock and pushes one
// frame on a thread-local stack; leaving pops it and does three relaxed
// load+store adds into thread-private stats. There is no lock and no
// allocation on the hot path (first use of a zone on a thread may grow
// the per-thread table under that thread's own mutex). Because even a
// raw TSC read can cost ~20 ns on virtualized hardware, hot zones decay
// to sampled timing: the first kProfExactCalls calls of a zone on a
// thread are timed exactly, after which only every kProfSamplePeriod-th
// call is timed and its duration scaled by the period. Call counts stay
// exact; inclusive/exclusive times for >kProfExactCalls-call zones are
// statistically representative rather than exact, which keeps a
// 100k-iteration Newton loop's instrumentation under the overhead
// budget bench_obs_overhead enforces. Under IRONIC_OBS_ENABLED=OFF the
// PROF_ZONE macro compiles to nothing; the snapshot API stays available
// and returns empty reports. The runtime kill switch
// (obs::set_runtime_enabled(false)) also disarms zones.
//
// Aggregates mirror into the metrics registry as gauges named
// prof.<zone>.{calls,inclusive_ns,exclusive_ns} — gauges so mirroring
// is idempotent — which is what `trace_validate --require` pins in CI.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace ironic::obs {

// Aggregated view of one zone across all threads that entered it.
struct ZoneReport {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;  // zone body including nested zones
  std::uint64_t exclusive_ns = 0;  // zone body minus nested zones
  std::uint32_t threads = 0;       // threads that entered the zone
};

// Zones entered so far, ordered by descending inclusive time. In-flight
// zones (entered, not yet left) are not counted.
std::vector<ZoneReport> profiler_snapshot();

// Zero every per-thread zone accumulator (bench legs call this between
// configurations). Does not unwind in-flight zones.
void profiler_reset();

// Fold profiler_snapshot() into `registry` as prof.<zone>.* gauges.
void profiler_mirror_to_registry(MetricsRegistry& registry);

// Sampling schedule per (zone, thread): calls [0, kProfExactCalls) are
// timed exactly; afterwards one call in kProfSamplePeriod is timed and
// scaled. Rarely-entered zones (tests, comms.exchange) therefore report
// exact times.
inline constexpr std::uint64_t kProfExactCalls = 64;
inline constexpr std::uint32_t kProfSamplePeriod = 16;

#if IRONIC_OBS_ENABLED

// Interned zone handle; obtained once per call site via a magic static.
struct ZoneId {
  std::uint32_t index;
};

ZoneId register_zone(const char* name);

namespace detail {

// Monotonic tick source: TSC on x86-64 (converted to wall ns at
// snapshot time via calibration against the steady clock);
// steady_clock nanoseconds elsewhere. RDTSCP, not RDTSC: it waits for
// every earlier instruction to finish, so a zone boundary does not
// charge the next zone for work still in flight (a factorization's
// divisions would otherwise land in the solve that follows it). It
// reads the same counter, so the calibration is unchanged.
inline std::uint64_t prof_now_ticks() {
#if defined(__x86_64__)
  unsigned int aux = 0;
  return __builtin_ia32_rdtscp(&aux);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Per-thread zone accumulators. Owner-thread writes are relaxed
// load+store adds (no other writer); the snapshot thread reads them
// under the profile mutex, which the owner takes only to grow the
// table. A deque keeps element addresses stable across growth.
struct ThreadProfile {
  struct ZoneStats {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> inclusive{0};
    std::atomic<std::uint64_t> exclusive{0};
    // Owner-thread-only sampling state (never read by the snapshot):
    std::uint64_t exact = 0;      // calls timed in the exact phase
    std::uint32_t countdown = 0;  // calls until the next timed sample
  };
  struct Frame {
    std::uint32_t zone;
    std::uint64_t start;
    std::uint64_t child;  // full-unit ticks spent in nested zones
    std::uint64_t scale;  // 1 exact, kProfSamplePeriod when sampling
  };

  std::mutex mutex;
  std::deque<ZoneStats> zones;
  std::vector<Frame> stack;  // owner-thread only
};

// Registers the calling thread's profile on first use and grows its
// zone table to cover `index`; caches the profile in t_profile.
ThreadProfile& prepare_zone(std::uint32_t index);

// Cached per-thread profile; null until the thread's first timed zone.
inline thread_local ThreadProfile* t_profile = nullptr;

}  // namespace detail

class ZoneScope {
 public:
  // The common case — a zone counted but not timed this call — stays
  // inline: one relaxed flag load, one TLS load, a counter bump, and a
  // countdown decrement. Timed entries fall through to the tick read.
  explicit ZoneScope(ZoneId id) {
    if (!runtime_enabled()) return;
    auto* profile = detail::t_profile;
    if (profile == nullptr || id.index >= profile->zones.size()) {
      profile = &detail::prepare_zone(id.index);
    }
    auto& z = profile->zones[id.index];
    // Owner-only writer: relaxed load+store instead of fetch_add keeps
    // this a plain add (no lock prefix) while the snapshot thread still
    // gets tear-free relaxed reads.
    z.calls.store(z.calls.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    std::uint64_t scale;
    if (z.exact < kProfExactCalls) {
      ++z.exact;
      scale = 1;
    } else if (z.countdown == 0) {
      z.countdown = kProfSamplePeriod - 1;
      scale = kProfSamplePeriod;
    } else {
      --z.countdown;
      return;  // counted, not timed — profile_ stays null, dtor no-ops
    }
    profile->stack.push_back({id.index, detail::prof_now_ticks(), 0, scale});
    profile_ = profile;
  }
  ~ZoneScope() {
    if (profile_ != nullptr) finish();
  }
  ZoneScope(const ZoneScope&) = delete;
  ZoneScope& operator=(const ZoneScope&) = delete;

 private:
  void finish();  // pops the frame and folds the timings in

  detail::ThreadProfile* profile_ = nullptr;  // null when disarmed
};

#define IRONIC_PROF_CONCAT2(a, b) a##b
#define IRONIC_PROF_CONCAT(a, b) IRONIC_PROF_CONCAT2(a, b)
#define PROF_ZONE(name_literal)                                             \
  static const ::ironic::obs::ZoneId IRONIC_PROF_CONCAT(                    \
      ironic_prof_zone_, __LINE__) =                                        \
      ::ironic::obs::register_zone(name_literal);                           \
  const ::ironic::obs::ZoneScope IRONIC_PROF_CONCAT(ironic_prof_scope_,     \
                                                    __LINE__)(              \
      IRONIC_PROF_CONCAT(ironic_prof_zone_, __LINE__))

#else  // !IRONIC_OBS_ENABLED

#define PROF_ZONE(name_literal) static_cast<void>(0)

#endif  // IRONIC_OBS_ENABLED

}  // namespace ironic::obs
