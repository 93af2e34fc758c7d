// ThreadPool / TaskGroup / parallel_for edge cases, the cancellation
// semantics, the serial-vs-parallel bit-identity of the tolerance Monte
// Carlo, and a concurrency hammer over the obs metrics/trace machinery.
#include "src/exec/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/tolerance.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/log.hpp"

using namespace ironic;
using namespace ironic::exec;

namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) group.run([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 64);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.run, 64u);
}

TEST(ThreadPool, EmptyTaskGroupWaitReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  EXPECT_NO_THROW(group.wait());
  EXPECT_NO_THROW(group.wait());  // wait() is idempotent
}

TEST(ThreadPool, PoolOfOneThreadStillCompletes) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) group.run([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedGroupOnWorkerDoesNotDeadlock) {
  // A task that itself fans out and waits must not deadlock, even when
  // the pool has a single worker — wait() helps drain the deques.
  ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  outer.run([&pool, &inner_total] {
    TaskGroup inner(pool);
    for (int i = 0; i < 8; ++i) inner.run([&inner_total] { ++inner_total; });
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(inner_total.load(), 8);
}

TEST(ThreadPool, ThrowingTaskPropagatesToWaiterAndPoolSurvives) {
  ThreadPool pool(2);
  {
    TaskGroup group(pool);
    group.run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(
        {
          try {
            group.wait();
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom");
            throw;
          }
        },
        std::runtime_error);
  }
  // The pool is still usable after the exception.
  std::atomic<int> count{0};
  TaskGroup after(pool);
  for (int i = 0; i < 8; ++i) after.run([&count] { ++count; });
  after.wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, TaskExceptionCancelsQueuedSiblings) {
  // Park the only worker on a long bare-submit task so the waiter's
  // helping loop is the sole consumer. It pops LIFO, so the thrower
  // (submitted last) runs first; every sibling is then dequeued under a
  // cancelled group and skipped. The thrown error (not TaskCancelled)
  // must win.
  ThreadPool pool(1);
  std::atomic<bool> parked{false};
  pool.submit([&parked] {
    parked = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  while (!parked) std::this_thread::yield();
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 32; ++i) group.run([&ran] { ++ran; });
  group.run([] { throw std::runtime_error("first"); });
  try {
    group.wait();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, SimultaneousThrowersFirstWinsOthersCounted) {
  // Multi-exception semantics under real concurrency: 8 tasks rendezvous
  // on a barrier, then all throw at once. Exactly one exception (the
  // first captured) propagates from wait(), every thrower is accounted
  // in errors(), nothing deadlocks, and the pool survives. The
  // fleet supervisor's containment layer is built on this contract.
  ThreadPool pool(8);
  constexpr int kThrowers = 8;
  std::atomic<int> arrived{0};
  std::atomic<int> threw{0};
  TaskGroup group(pool);
  for (int i = 0; i < kThrowers; ++i) {
    group.run([&arrived, &threw, i] {
      arrived.fetch_add(1, std::memory_order_relaxed);
      // Spin until every task is in flight so the throws overlap; no
      // task can be skipped by a sibling's cancellation because all of
      // them are already past the dequeue check.
      while (arrived.load(std::memory_order_relaxed) < kThrowers) {
        std::this_thread::yield();
      }
      threw.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("thrower " + std::to_string(i));
    });
  }
  try {
    group.wait();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // One of the 8, whichever was captured first.
    EXPECT_EQ(std::string(e.what()).rfind("thrower ", 0), 0u);
  }
  EXPECT_EQ(threw.load(), kThrowers);
  EXPECT_EQ(group.errors(), static_cast<std::size_t>(kThrowers));

  // The pool is intact: a fresh group on the same pool runs clean, and
  // the old group's error count is cumulative, not reset by wait().
  std::atomic<int> count{0};
  TaskGroup after(pool);
  for (int i = 0; i < 16; ++i) after.run([&count] { ++count; });
  after.wait();
  EXPECT_EQ(count.load(), 16);
  EXPECT_EQ(after.errors(), 0u);
  EXPECT_EQ(group.errors(), static_cast<std::size_t>(kThrowers));
}

TEST(ThreadPool, CancelSkipsQueuedTasksAndWaitThrows) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.cancel();  // cancel before anything is dequeued
  for (int i = 0; i < 8; ++i) group.run([&ran] { ++ran; });
  EXPECT_THROW(group.wait(), TaskCancelled);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(group.cancelled());
}

TEST(ThreadPool, TryRunOneOnIdlePoolReturnsFalse) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.try_run_one());
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  int count = 0;
  parallel_for(pool, 5, 5, [&count](std::size_t) { ++count; });
  parallel_for(pool, 7, 3, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ParallelFor, SingleItemRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  parallel_for(pool, 0, 1, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelForOptions opts;
  opts.grain = 7;  // deliberately not a divisor of kN
  parallel_for(
      pool, 0, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); }, opts);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, CancelledTokenThrows) {
  ThreadPool pool(2);
  CancellationSource source;
  source.cancel();
  ParallelForOptions opts;
  opts.token = source.token();
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 100, [&ran](std::size_t) { ++ran; }, opts),
      TaskCancelled);
}

TEST(ParallelFor, ExpiredDeadlineTokenRunsNoItem) {
  // A zero timeout has expired before the first item is due, however
  // fast the pool is: the inline path (one worker) checks the token
  // before its first item, the pooled path (four workers) skips every
  // queued chunk, and both report TaskCancelled without running the body.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    ParallelForOptions opts;
    opts.token = CancellationToken{}.with_timeout(std::chrono::nanoseconds(0));
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallel_for(pool, 0, 100, [&ran](std::size_t) { ++ran; }, opts),
        TaskCancelled)
        << threads;
    EXPECT_EQ(ran.load(), 0) << threads;
  }
}

TEST(ParallelFor, MidSweepCancellationStopsScheduledWork) {
  // The first item to execute — whichever it is under the LIFO/steal
  // scheduling — trips the source; every chunk dequeued afterwards is
  // skipped, so only the handful already in flight can run and the wait
  // reports cancellation.
  ThreadPool pool(2);
  CancellationSource source;
  ParallelForOptions opts;
  opts.token = source.token();
  opts.grain = 1;
  std::atomic<int> ran{0};
  std::atomic<bool> first{true};
  EXPECT_THROW(parallel_for(
                   pool, 0, 64,
                   [&](std::size_t) {
                     if (first.exchange(false)) source.cancel();
                     ++ran;
                   },
                   opts),
               TaskCancelled);
  EXPECT_LT(ran.load(), 64);
}

TEST(ParallelFor, SerialAndParallelSumsMatchBitwise) {
  // Slot-indexed writes + per-index RNG stream: the documented recipe
  // must give bit-identical doubles for 1 worker vs 4.
  constexpr std::size_t kN = 256;
  const auto run_with = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kN);
    auto streams = util::Rng(77).split(kN);
    parallel_for(pool, 0, kN, [&](std::size_t i) {
      util::Rng rng = streams[i];
      out[i] = rng.normal() + rng.uniform();
    });
    return out;
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(serial[i], parallel[i]) << i;
}

TEST(ExecTolerance, SerialAndPooledMonteCarloBitIdentical) {
  // Two draws: the four-worker pool still runs them at once, and each is
  // a full end-to-end transient, the bulk of this test's time under TSan.
  core::ToleranceSpec spec;
  spec.runs = 2;
  const auto base = core::shortened_fig11_config();
  const auto serial = core::run_tolerance_analysis(spec, base);
  ThreadPool pool(4);
  const auto pooled = core::run_tolerance_analysis(spec, base, pool);
  ASSERT_EQ(serial.runs, pooled.runs);
  EXPECT_EQ(serial.pass_charged, pooled.pass_charged);
  EXPECT_EQ(serial.pass_downlink, pooled.pass_downlink);
  EXPECT_EQ(serial.pass_uplink, pooled.pass_uplink);
  EXPECT_EQ(serial.pass_regulation, pooled.pass_regulation);
  EXPECT_EQ(serial.pass_all, pooled.pass_all);
  EXPECT_EQ(serial.vo_min_worst, pooled.vo_min_worst);  // bitwise, no tolerance
  ASSERT_EQ(serial.details.size(), pooled.details.size());
  for (std::size_t k = 0; k < serial.details.size(); ++k) {
    EXPECT_EQ(serial.details[k].vo_min, pooled.details[k].vo_min) << k;
    EXPECT_EQ(serial.details[k].t_charge, pooled.details[k].t_charge) << k;
    EXPECT_EQ(serial.details[k].charged, pooled.details[k].charged) << k;
  }
}

TEST(ObsConcurrency, MetricsSurviveHammeringFromPoolWorkers) {
  // Satellite audit: counters/gauges/histograms take increments from many
  // workers at once; totals must be exact (no lost updates) and handles
  // cached before a reset() must stay valid afterwards.
  auto& reg = obs::MetricsRegistry::instance();
  auto& counter = reg.counter("test.exec.hammer_count");
  auto& gauge = reg.gauge("test.exec.hammer_gauge");
  auto& hist = reg.histogram("test.exec.hammer_hist");
  counter.reset();
  gauge.reset();
  hist.reset();

  constexpr int kTasks = 64;
  constexpr int kPerTask = 500;
  ThreadPool pool(4);
  TaskGroup group(pool);
  for (int t = 0; t < kTasks; ++t) {
    group.run([&] {
      for (int i = 0; i < kPerTask; ++i) {
        counter.add(1);
        gauge.add(1.0);
        hist.observe(static_cast<double>(i));
      }
    });
  }
  group.wait();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTasks) * kPerTask);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kTasks) * kPerTask);

  // reset() zeroes in place; the references above must remain usable.
  reg.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.count(), 0u);
  counter.add(3);
  EXPECT_EQ(counter.value(), 3u);
}

TEST(ObsConcurrency, TraceSpansFromManyWorkersAreWellFormed) {
  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.enable();
  ThreadPool pool(4);
  TaskGroup group(pool);
  for (int t = 0; t < 32; ++t) {
    group.run([t] {
      obs::Span span("exec_test.span", "test");
      (void)t;
    });
  }
  group.wait();
  rec.disable();
  const auto events = rec.events();
  if (obs::kEnabled) {
    EXPECT_EQ(events.size(), 32u);
    for (const auto& e : events) {
      EXPECT_EQ(e.name, "exec_test.span");
      EXPECT_GE(e.dur_us, 0.0);
    }
  } else {
    EXPECT_TRUE(events.empty());
  }
  rec.clear();
}

TEST(ParallelFor, ProgressReportsEveryChunkOnPooledPath) {
  // n=100, grain=7 -> 15 chunks. Cumulative counts arrive out of order
  // across workers, but the multiset of values is fixed: 15 distinct
  // cumulative totals, ending at exactly n.
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::size_t> done;
  std::atomic<std::size_t> sum{0};
  ParallelForOptions opts;
  opts.grain = 7;
  opts.progress = [&](std::size_t completed, std::size_t total) {
    EXPECT_EQ(total, 100u);
    const std::lock_guard<std::mutex> lock(mutex);
    done.push_back(completed);
  };
  parallel_for(
      pool, 0, 100, [&](std::size_t i) { sum += i; }, opts);
  EXPECT_EQ(sum.load(), 4950u);
  ASSERT_EQ(done.size(), 15u);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(std::unique(done.begin(), done.end()), done.end());
  EXPECT_EQ(done.back(), 100u);
}

TEST(ParallelFor, ProgressReportsInOrderOnInlinePath) {
  // A single-worker pool runs the range inline: progress fires at every
  // grain boundary plus the final partial chunk, strictly in order.
  ThreadPool pool(1);
  std::vector<std::size_t> done;
  ParallelForOptions opts;
  opts.grain = 7;
  opts.progress = [&](std::size_t completed, std::size_t total) {
    EXPECT_EQ(total, 100u);
    done.push_back(completed);
  };
  parallel_for(pool, 0, 100, [](std::size_t) {}, opts);
  std::vector<std::size_t> expected;
  for (std::size_t d = 7; d < 100; d += 7) expected.push_back(d);
  expected.push_back(100);
  EXPECT_EQ(done, expected);
}

TEST(ObsConcurrency, LogEventsFromPoolWorkersAreSerialized) {
  // Hammer util::Log's structured-event path from every worker at once:
  // both the plain-text sink and the event sink must see every record and
  // must never observe interleaved/torn field vectors.
  std::atomic<int> text_records{0};
  std::atomic<int> event_records{0};
  std::atomic<int> malformed{0};
  util::Log::set_sink(
      [&text_records](util::LogLevel, const std::string&) { ++text_records; });
  util::Log::set_event_sink(
      [&event_records, &malformed](util::LogLevel, const std::string& component,
                                   const std::vector<util::Log::Field>& fields) {
        ++event_records;
        if (component != "exec_test" || fields.size() != 2 ||
            fields[0].first != "worker" || fields[1].first != "i")
          ++malformed;
      });
  const util::LogLevel saved = util::Log::level();
  util::Log::set_level(util::LogLevel::kDebug);

  constexpr int kTasks = 64;
  {
    ThreadPool pool(4);
    TaskGroup group(pool);
    for (int t = 0; t < kTasks; ++t) {
      group.run([t] {
        util::Log::event(util::LogLevel::kInfo, "exec_test",
                         {{"worker", "pool"}, {"i", std::to_string(t)}});
      });
    }
    group.wait();
  }

  util::Log::set_level(saved);
  util::Log::set_sink(nullptr);
  util::Log::set_event_sink(nullptr);
  EXPECT_EQ(text_records.load(), kTasks);
  EXPECT_EQ(event_records.load(), kTasks);
  EXPECT_EQ(malformed.load(), 0);
}

}  // namespace
