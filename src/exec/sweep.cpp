#include "src/exec/sweep.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"

#include <atomic>

namespace ironic::exec {

Axis::Axis(std::string name, std::vector<double> values)
    : name_(std::move(name)), values_(std::move(values)) {
  if (name_.empty()) throw std::invalid_argument("Axis: empty name");
  if (values_.empty()) throw std::invalid_argument("Axis: no values");
}

Axis Axis::linear(std::string name, double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("Axis::linear: n >= 1");
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = n == 1 ? lo
                       : lo + (hi - lo) * static_cast<double>(i) /
                                 static_cast<double>(n - 1);
  }
  return Axis(std::move(name), std::move(values));
}

Axis Axis::log_space(std::string name, double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("Axis::log_space: n >= 1");
  if (lo <= 0.0 || hi <= 0.0) {
    throw std::invalid_argument("Axis::log_space: endpoints must be > 0");
  }
  std::vector<double> values(n);
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = n == 1 ? lo
                       : std::exp(llo + (lhi - llo) * static_cast<double>(i) /
                                            static_cast<double>(n - 1));
  }
  return Axis(std::move(name), std::move(values));
}

Axis Axis::list(std::string name, std::vector<double> values) {
  return Axis(std::move(name), std::move(values));
}

Axis Axis::monte_carlo_uniform(std::string name, std::size_t n, double lo,
                               double hi, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.uniform(lo, hi);
  return Axis(std::move(name), std::move(values));
}

Axis Axis::monte_carlo_normal(std::string name, std::size_t n, double mean,
                              double sigma, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.normal(mean, sigma);
  return Axis(std::move(name), std::move(values));
}

double SweepPoint::value(std::string_view axis) const {
  const auto& axes = sweep_->axes();
  // Decode the row-major index on demand; axis counts are tiny.
  std::size_t stride = 1;
  for (std::size_t a = axes.size(); a-- > 0;) {
    if (axes[a].name() == axis) {
      return axes[a].values()[(index_ / stride) % axes[a].size()];
    }
    stride *= axes[a].size();
  }
  throw std::out_of_range("SweepPoint: unknown axis '" + std::string(axis) + "'");
}

Sweep& Sweep::axis(Axis a) {
  for (const auto& existing : axes_) {
    if (existing.name() == a.name()) {
      throw std::invalid_argument("Sweep: duplicate axis '" + a.name() + "'");
    }
  }
  axes_.push_back(std::move(a));
  return *this;
}

std::size_t Sweep::size() const {
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.size();
  return n;
}

std::vector<double> Sweep::values_at(std::size_t index) const {
  if (index >= size()) throw std::out_of_range("Sweep::values_at: index");
  std::vector<double> values(axes_.size());
  std::size_t rest = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    values[a] = axes_[a].values()[rest % axes_[a].size()];
    rest /= axes_[a].size();
  }
  return values;
}

SweepResult Sweep::run(std::vector<std::string> columns, const SweepRowFn& row,
                       const SweepOptions& opts) const {
  const std::size_t n = size();
  const auto wall_start = std::chrono::steady_clock::now();

  // Stream i for point i — the determinism contract. Streams are carved
  // out serially here (one 2^128 jump each), before any task runs.
  std::vector<util::Rng> streams = util::Rng(opts.seed).split(n);
  std::vector<std::vector<std::string>> rows(n);

  obs::Counter* points_run = nullptr;
  if constexpr (obs::kEnabled) {
    points_run =
        &obs::MetricsRegistry::instance().counter("exec.sweep.points_run");
  }

  // One flow per point ties the dispatch (flow 's' on this thread, below)
  // to the execution span (flow 'f' on whichever pool worker runs it), so
  // the trace viewer draws arrows across thread tracks. Ids come from a
  // process-wide base so concurrent sweeps never share a flow.
  static std::atomic<std::uint64_t> flow_base{1};
  const std::uint64_t flow0 = flow_base.fetch_add(n, std::memory_order_relaxed);
  auto& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      recorder.flow_begin("sweep." + name_, "exec", flow0 + i);
    }
  }

  const auto eval_point = [&](std::size_t i) {
    PROF_ZONE("exec.sweep_point");
    obs::Span span("sweep." + name_, "exec");
    span.arg("point", std::to_string(i));
    if (recorder.enabled()) {
      recorder.flow_end("sweep." + name_, "exec", flow0 + i);
    }
    const SweepPoint point(*this, i, streams[i]);
    rows[i] = row(point);
    if constexpr (obs::kEnabled) points_run->add();
  };

  if (opts.pool != nullptr) {
    parallel_for(*opts.pool, 0, n, eval_point,
                 ParallelForOptions{opts.grain, opts.token});
  } else if (opts.threads == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      opts.token.throw_if_cancelled();
      eval_point(i);
    }
  } else {
    ThreadPool pool(opts.threads);
    parallel_for(pool, 0, n, eval_point,
                 ParallelForOptions{opts.grain, opts.token});
  }

  SweepResult result{name_, util::Table(std::move(columns)), n, 0.0};
  for (auto& cells : rows) result.table.add_row(std::move(cells));
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry::instance()
        .histogram("exec.sweep.wall_seconds")
        .observe(result.wall_seconds);
  }
  return result;
}

}  // namespace ironic::exec
