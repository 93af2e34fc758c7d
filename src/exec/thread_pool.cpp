#include "src/exec/thread_pool.hpp"

#include <chrono>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/util/log.hpp"

namespace ironic::exec {

namespace {

// Cached handles into the metrics registry for the pool's hot paths
// (same pattern as spice::EngineMetrics). The registry zeroes in place on
// reset(), so these references never dangle.
struct PoolMetrics {
  obs::Gauge& threads;
  obs::Gauge& queue_depth;
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_run;
  obs::Counter& steals;
  obs::Counter& tasks_skipped;

  static PoolMetrics& get() {
    static PoolMetrics m = [] {
      auto& r = obs::MetricsRegistry::instance();
      return PoolMetrics{
          r.gauge("exec.pool.threads"),
          r.gauge("exec.pool.queue_depth"),
          r.counter("exec.pool.tasks_submitted"),
          r.counter("exec.pool.tasks_run"),
          r.counter("exec.pool.steals"),
          r.counter("exec.pool.tasks_skipped"),
      };
    }();
    return m;
  }
};

// Which pool (if any) owns the current thread, and the worker index
// within it; lets submit() keep worker-local work on the local deque.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
  if constexpr (obs::kEnabled) {
    PoolMetrics::get().threads.set(static_cast<double>(threads));
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    PoolMetrics::get().tasks_submitted.add();
    PoolMetrics::get().queue_depth.add(1.0);
  }
  // Worker-local submissions stay on the submitting worker's deque
  // (LIFO); external ones are spread round-robin.
  std::size_t target;
  if (tls_pool == this) {
    target = tls_worker;
  } else {
    target = next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::pop_task(std::size_t home, Task& out, bool count_steal) {
  // Own deque first, newest task (back).
  {
    Worker& own = *workers_[home];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      out = std::move(own.queue.back());
      own.queue.pop_back();
      const std::lock_guard<std::mutex> wl(wake_mutex_);
      --queued_;
      return true;
    }
  }
  // Steal: oldest task (front) from the first non-empty victim.
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(home + k) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      out = std::move(victim.queue.front());
      victim.queue.pop_front();
      if (count_steal) {
        n_steals_.fetch_add(1, std::memory_order_relaxed);
        if constexpr (obs::kEnabled) PoolMetrics::get().steals.add();
      }
      const std::lock_guard<std::mutex> wl(wake_mutex_);
      --queued_;
      return true;
    }
  }
  return false;
}

void ThreadPool::execute(Task& task) {
  n_run_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    PoolMetrics::get().tasks_run.add();
    PoolMetrics::get().queue_depth.add(-1.0);
  }
  try {
    task();
  } catch (const std::exception& e) {
    // Only reachable for bare submit() tasks; TaskGroup wraps its tasks
    // and captures exceptions for the waiter.
    util::Log::error(std::string("exec: uncaught task exception: ") + e.what());
  } catch (...) {
    util::Log::error("exec: uncaught task exception (non-std type)");
  }
}

void ThreadPool::worker_main(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  // Pin this worker's metric shard slot and trace tid before the first
  // task, so no hot-path recording pays the one-time ordinal assignment.
  const obs::ThreadRegistration obs_registration;
  for (;;) {
    Task task;
    if (pop_task(index, task, /*count_steal=*/true)) {
      execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

bool ThreadPool::try_run_one() {
  const std::size_t home = tls_pool == this ? tls_worker : 0;
  Task task;
  // Helping from an external thread is not a steal in the scheduling
  // sense; only worker-to-worker transfers count.
  if (!pop_task(home, task, /*count_steal=*/tls_pool == this)) return false;
  execute(task);
  return true;
}

ThreadPool::Stats ThreadPool::stats() const {
  return Stats{n_submitted_.load(std::memory_order_relaxed),
               n_run_.load(std::memory_order_relaxed),
               n_steals_.load(std::memory_order_relaxed)};
}

// ---------------------------------------------------------------- TaskGroup

TaskGroup::TaskGroup(ThreadPool& pool, CancellationToken token)
    : pool_(pool), external_(std::move(token)) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor must not throw; call wait() explicitly to observe errors.
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_.submit([this, fn = std::move(fn)] {
    if (cancelled()) {
      if constexpr (obs::kEnabled) {
        obs::MetricsRegistry::instance().counter("exec.pool.tasks_skipped").add();
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      ++skipped_;
    } else {
      try {
        fn();
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++errors_;
          if (!first_error_) first_error_ = std::current_exception();
        }
        // First failure cancels the group's remaining queued tasks.
        source_.cancel();
      }
    }
    // Notify while still holding the mutex: once it is released a waiter
    // may observe pending_ == 0, return from wait(), and destroy the
    // group — so the condvar must not be touched after the unlock.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_cv_.notify_all();
  });
}

void TaskGroup::wait() {
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_ == 0) break;
    }
    // Help: run pool tasks (ours or anyone's) instead of blocking; when
    // the pool is drained but our tasks still run elsewhere, block
    // briefly and re-check.
    if (!pool_.try_run_one()) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait_for(lock, std::chrono::milliseconds(1),
                        [this] { return pending_ == 0; });
    }
  }
  std::exception_ptr error;
  std::size_t skipped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    error = first_error_;
    first_error_ = nullptr;
    skipped = skipped_;
    skipped_ = 0;
  }
  if (error) std::rethrow_exception(error);
  if (skipped > 0) {
    throw TaskCancelled("exec: " + std::to_string(skipped) +
                        " task(s) skipped by cancellation");
  }
}

}  // namespace ironic::exec
