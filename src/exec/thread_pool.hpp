// Fixed-size thread pool with per-worker work-stealing deques.
//
// Each worker owns a deque: it pushes and pops at the back (LIFO, keeps
// caches warm for recursively decomposed work) while idle workers steal
// from the front (FIFO, takes the oldest — and for divide-and-conquer the
// largest — pending chunk). External submissions are distributed
// round-robin; submissions from inside a worker go to that worker's own
// deque. Threads waiting in TaskGroup::wait() help drain the pool instead
// of blocking, so nested waits cannot deadlock even on a pool of one.
//
// Determinism contract: the pool schedules *execution*, never *results*.
// Callers index output slots by task id and draw randomness from
// util::Rng streams keyed by task id (see util::Rng::split), so a sweep's
// output is bit-identical for any thread count, including serial.
//
// Observability (metrics registry, recorded only when obs is compiled
// in): exec.pool.threads, exec.pool.queue_depth (gauges);
// exec.pool.tasks_submitted, exec.pool.tasks_run, exec.pool.steals,
// exec.pool.tasks_skipped (counters). The pool reads no clock: the
// profiler zones inside its tasks (exec.sweep_point, fleet.session)
// carry their time.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exec/cancellation.hpp"

namespace ironic::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // threads == 0 → std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  // Runs every task already submitted, then joins the workers.
  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  // Fire-and-forget; prefer TaskGroup for anything that needs completion,
  // exceptions, or cancellation. A task that throws out of submit() is
  // caught and logged (the pool must survive).
  void submit(Task task);

  // Pop one pending task and run it on the calling thread. Returns false
  // when every deque is empty. This is the "helping" primitive behind
  // TaskGroup::wait().
  bool try_run_one();

  // Aggregate counters since construction (also mirrored into the metrics
  // registry; kept here so tests do not depend on obs being compiled in).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t run = 0;
    std::uint64_t steals = 0;
  };
  Stats stats() const;

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;
  };

  void worker_main(std::size_t index);
  bool pop_task(std::size_t home, Task& out, bool count_steal);
  void execute(Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;  // guards queued_ and stop_ for the cv protocol
  std::condition_variable wake_cv_;
  std::size_t queued_ = 0;
  bool stop_ = false;

  std::atomic<std::size_t> next_worker_{0};
  std::atomic<std::uint64_t> n_submitted_{0};
  std::atomic<std::uint64_t> n_run_{0};
  std::atomic<std::uint64_t> n_steals_{0};
};

// A set of tasks on one pool, waited on together. Multi-exception
// semantics (pinned by ThreadPoolSimultaneousThrowers): when several
// tasks throw concurrently, exactly the *first* captured exception is
// rethrown from wait(); every other throwing task is still fully
// accounted (the group never deadlocks, pending_ reaches zero) and
// counted in errors(). The first failure cancels the group's remaining
// queued tasks. wait() *helps*: the caller runs pending pool tasks while
// the group drains, so a worker thread may safely create and wait on a
// nested group.
class TaskGroup {
 public:
  // `token` (optional) chains an outer cancellation scope into the group.
  explicit TaskGroup(ThreadPool& pool, CancellationToken token = {});
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  // Blocks until every task has finished or been skipped; exceptions are
  // swallowed here (call wait() yourself to observe them).
  ~TaskGroup();

  // Schedule `fn`. If the group is cancelled (cancel(), a failed sibling,
  // or the outer token tripping or passing its deadline) while the task
  // is still queued, the closure is never invoked. A closure that must
  // react to the outer token mid-run should capture it itself.
  void run(std::function<void()> fn);

  // Cooperatively cancel every task not yet started.
  void cancel() { source_.cancel(); }
  bool cancelled() const { return source_.cancelled() || external_.cancelled(); }

  // Total tasks that threw since construction (cumulative across waits —
  // wait() rethrows only the first exception, this counts them all).
  std::size_t errors() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

  // Wait for all tasks, helping the pool meanwhile. Rethrows the first
  // task exception; if tasks were skipped due to cancellation and no task
  // threw, throws TaskCancelled.
  void wait();

 private:
  ThreadPool& pool_;
  CancellationSource source_;
  CancellationToken external_;  // caller-supplied outer scope

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;
  std::size_t skipped_ = 0;
  std::size_t errors_ = 0;  // cumulative; never reset by wait()
  std::exception_ptr first_error_;
};

// Options for parallel_for. grain == 0 picks ~4 chunks per worker, the
// latency/overhead sweet spot for uniform work; set grain explicitly for
// very uneven per-item cost (small grain) or very cheap items (large).
struct ParallelForOptions {
  std::size_t grain = 0;
  CancellationToken token{};
  // Optional progress hook for long fan-outs (fleet soaks): invoked once
  // per completed chunk with the cumulative completed-item count and the
  // total. Called from whichever worker finished the chunk, so the call
  // order across workers is unspecified and `completed` values may
  // arrive out of order — use it for monitoring/telemetry only, never
  // for results (the determinism contract covers results, not callback
  // interleaving). Must be thread-safe.
  std::function<void(std::size_t completed, std::size_t total)> progress{};
};

// Apply fn(i) for i in [begin, end). fn must be safe to invoke
// concurrently from multiple threads for distinct i; iteration-to-thread
// assignment is unspecified but results must not depend on it (write to
// slot i, draw from stream i). Runs inline when the range is one grain or
// the pool has a single worker — the code path difference is scheduling
// only, never values.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Fn&& fn,
                  const ParallelForOptions& opts = {}) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  std::size_t grain = opts.grain;
  if (grain == 0) grain = std::max<std::size_t>(1, n / (4 * pool.size()));

  if (n <= grain || pool.size() <= 1) {
    for (std::size_t i = begin; i < end; ++i) {
      if ((i - begin) % grain == 0) opts.token.throw_if_cancelled();
      fn(i);
      const std::size_t done = i - begin + 1;
      if (opts.progress && (done % grain == 0 || done == n)) {
        opts.progress(done, n);
      }
    }
    return;
  }

  TaskGroup group(pool, opts.token);
  std::atomic<std::size_t> completed{0};
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    group.run([&fn, &opts, &completed, lo, hi, n] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      if (opts.progress) {
        const std::size_t done =
            completed.fetch_add(hi - lo, std::memory_order_relaxed) +
            (hi - lo);
        opts.progress(done, n);
      }
    });
  }
  group.wait();
}

}  // namespace ironic::exec
