// Cooperative cancellation for the parallel execution subsystem.
//
// A CancellationSource owns the cancel flag; CancellationTokens are cheap
// copyable views of it, optionally tightened with a deadline. Cancellation
// is strictly cooperative: a running task keeps running until it polls
// `cancelled()` / `throw_if_cancelled()`, while tasks still queued when
// their token trips are skipped by the TaskGroup wrapper without ever
// invoking the closure.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace ironic::exec {

// Thrown by throw_if_cancelled() and by TaskGroup::wait() when work was
// skipped because of cancellation or an expired deadline.
struct TaskCancelled : std::runtime_error {
  TaskCancelled() : std::runtime_error("exec: task cancelled") {}
  explicit TaskCancelled(const std::string& what) : std::runtime_error(what) {}
};

class CancellationToken {
 public:
  // Default token: never cancelled, no deadline.
  CancellationToken() = default;

  bool cancelled() const {
    if (flag_ && flag_->load(std::memory_order_relaxed)) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }
  void throw_if_cancelled() const {
    if (cancelled()) throw TaskCancelled();
  }

  // Derived token sharing the same cancel flag but additionally cancelled
  // once `timeout` elapses (measured from now). An existing earlier
  // deadline is kept. A timeout that runs past the clock's range
  // saturates at its last instant: adding it to now() would overflow.
  CancellationToken with_timeout(std::chrono::nanoseconds timeout) const {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    return with_deadline(timeout < Clock::time_point::max() - now
                             ? now + timeout
                             : Clock::time_point::max());
  }
  CancellationToken with_deadline(
      std::chrono::steady_clock::time_point deadline) const {
    CancellationToken token = *this;
    if (!token.has_deadline_ || deadline < token.deadline_) {
      token.deadline_ = deadline;
      token.has_deadline_ = true;
    }
    return token;
  }

 private:
  friend class CancellationSource;
  std::shared_ptr<const std::atomic<bool>> flag_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

  CancellationToken token() const {
    CancellationToken t;
    t.flag_ = flag_;
    return t;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace ironic::exec
