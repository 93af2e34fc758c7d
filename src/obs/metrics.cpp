#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <thread>

#include "src/obs/json.hpp"

namespace ironic::obs {

namespace {

// Atomically apply `op` (e.g. +, min, max) to an atomic<double>.
template <typename Op>
void atomic_apply(std::atomic<double>& target, double v, Op op) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, op(cur, v),
                                       std::memory_order_relaxed)) {
  }
}

// Percentile by linear interpolation inside the containing bucket,
// clamped to the observed range so sparse tails do not report values
// never seen. Shared by Histogram::percentile and the cohort
// aggregation (which merges child buckets before calling it).
double percentile_from_buckets(const std::vector<double>& bounds,
                               const std::vector<std::uint64_t>& buckets,
                               std::uint64_t count, double lo_seen,
                               double hi_seen, double p) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = std::max(i == 0 ? lo_seen : bounds[i - 1], lo_seen);
      const double upper =
          std::min(i < bounds.size() ? bounds[i] : hi_seen, hi_seen);
      const double frac =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lower + (upper - lower) * frac;
    }
    cumulative += in_bucket;
  }
  return hi_seen;
}

// Exact percentile over a sorted sample set (cohort scalar metrics):
// linear interpolation between closest ranks.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

namespace detail {

std::size_t assign_thread_ordinal() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void set_runtime_enabled(bool on) {
  detail::g_runtime_enabled.store(on, std::memory_order_relaxed);
}

std::size_t thread_index() { return detail::thread_ordinal() + 1; }

void Gauge::set(double v) {
  if (!detail::runtime_on()) return;
  // Rebase: zero the shards so value() == v afterwards (a concurrent
  // add() may land before or after the rebase — benign, same contract
  // as the CAS-based predecessor).
  for (auto& cell : cells_) cell.v.store(0.0, std::memory_order_relaxed);
  base_.store(v, std::memory_order_relaxed);
}

void Gauge::add(double d) {
  if (!detail::runtime_on()) return;
  atomic_apply(cells_[detail::shard_slot()].v, d,
               [](double a, double b) { return a + b; });
}

void Gauge::set_max(double v) {
  if (!detail::runtime_on()) return;
  // Raise the base until the combined value is at least v. Approximate
  // under concurrent add() (the shard sum can move between the read and
  // the CAS); exact for the single-writer high-water-mark use it serves.
  double cur = base_.load(std::memory_order_relaxed);
  for (;;) {
    double shards = 0.0;
    for (const auto& cell : cells_) {
      shards += cell.v.load(std::memory_order_relaxed);
    }
    if (cur + shards >= v) return;
    if (base_.compare_exchange_weak(cur, v - shards,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

namespace {

// Two's complement negation of a four-word fixed-point number.
void negate(std::array<std::uint64_t, 4>& words) {
  bool carry = true;
  for (auto& w : words) {
    w = ~w + (carry ? 1 : 0);
    carry = carry && w == 0;
  }
}

}  // namespace

void ExactSum::add(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  // |v| = m * 2^(shift - 128), m the 53-bit significand: shift is the
  // bit of the fixed-point number m's lowest bit lands on.
  const int shift = std::max(biased, 1) - 1075 + 128;
  if (biased == 0x7ff || shift > 138) {  // inf, NaN, or |v| >= 2^63
    outside_ += v;
    return;
  }
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased != 0) m |= std::uint64_t{1} << 52;
  std::array<std::uint64_t, 4> term{};
  if (shift < 0) {
    term[0] = shift > -64 ? m >> -shift : 0;
  } else {
    const int word = shift / 64;
    const int bit = shift % 64;
    term[static_cast<std::size_t>(word)] = m << bit;
    if (bit != 0) term[static_cast<std::size_t>(word) + 1] = m >> (64 - bit);
  }
  if ((bits >> 63) != 0) negate(term);
  add_words(term);
}

void ExactSum::add(const ExactSum& other) {
  add_words(other.words_);
  outside_ += other.outside_;
}

void ExactSum::add_words(const std::array<std::uint64_t, 4>& x) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t partial = words_[i] + x[i];
    const std::uint64_t total = partial + carry;
    carry = (partial < x[i] ? 1 : 0) + (total < partial ? 1 : 0);
    words_[i] = total;
  }
}

double ExactSum::value() const {
  std::array<std::uint64_t, 4> mag = words_;
  const bool negative = (mag[3] >> 63) != 0;
  if (negative) negate(mag);
  std::size_t top = mag.size();
  while (top > 0 && mag[top - 1] == 0) --top;
  double total = 0.0;
  if (top == 1) {
    total = std::ldexp(static_cast<double>(mag[0]), -128);
  } else if (top > 1) {
    // The 64 bits from the highest set bit down, with a sticky bit for
    // everything below them, so the one conversion rounds to nearest.
    const std::size_t t = top - 1;
    const int lead = std::countl_zero(mag[t]);
    std::uint64_t window = mag[t] << lead;
    std::uint64_t below = mag[t - 1];
    if (lead != 0) {
      window |= mag[t - 1] >> (64 - lead);
      below = mag[t - 1] << lead;
    }
    for (std::size_t i = 0; i + 1 < t; ++i) below |= mag[i];
    if (below != 0) window |= 1;
    total = std::ldexp(static_cast<double>(window),
                       static_cast<int>(64 * t) - lead - 128);
  }
  return (negative ? -total : total) + outside_;
}

// One thread's slice of a histogram, allocated on first observation so
// idle metrics cost one pointer array. A spin lock guards the fields:
// observe() holds it for one observation, merged() and reset() hold every
// shard's at once, so no reader sees part of an observation or part of a
// reset. Uncontended, that is one atomic exchange per observation.
struct Histogram::Shard {
  explicit Shard(std::size_t n_buckets) : buckets(n_buckets, 0) {}

  void lock() {
    while (busy.exchange(true, std::memory_order_acquire)) {
      while (busy.load(std::memory_order_relaxed)) std::this_thread::yield();
    }
  }
  void unlock() { busy.store(false, std::memory_order_release); }

  std::atomic<bool> busy{false};
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  ExactSum sum;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_histogram_bounds();
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    std::sort(bounds_.begin(), bounds_.end());
  }
}

Histogram::~Histogram() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_acquire);
}

Histogram::Shard& Histogram::shard() {
  auto& slot = shards_[detail::shard_slot()];
  Shard* existing = slot.load(std::memory_order_acquire);
  if (existing) return *existing;
  auto* fresh = new Shard(bounds_.size() + 1);
  Shard* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  // Another thread hashed onto the same slot and won the install race.
  delete fresh;
  return *expected;
}

void Histogram::observe(double v) {
  if (!detail::runtime_on()) return;
  Shard& s = shard();
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  const std::lock_guard<Shard> guard(s);
  ++s.buckets[idx];
  ++s.count;
  s.sum.add(v);
  s.min = s.min < v ? s.min : v;
  s.max = s.max > v ? s.max : v;
}

// Every installed shard of a histogram, locked until the holder goes out
// of scope. Slots lock in index order, the same in every holder, so two
// holders never deadlock. A shard installed after its slot was read is
// left out; it holds only observations that started after that read.
class Histogram::LockedShards {
 public:
  explicit LockedShards(const Histogram& h) {
    for (std::size_t i = 0; i < kMetricShards; ++i) {
      held_[i] = h.shards_[i].load(std::memory_order_acquire);
      if (held_[i]) held_[i]->lock();
    }
  }
  ~LockedShards() {
    for (Shard* s : held_) {
      if (s) s->unlock();
    }
  }
  LockedShards(const LockedShards&) = delete;
  LockedShards& operator=(const LockedShards&) = delete;

  const std::array<Shard*, kMetricShards>& shards() const { return held_; }

 private:
  std::array<Shard*, kMetricShards> held_{};
};

Histogram::Merged Histogram::merged() const {
  Merged m;
  m.buckets.assign(bounds_.size() + 1, 0);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  {
    const LockedShards locked(*this);
    for (const Shard* s : locked.shards()) {
      if (!s) continue;
      for (std::size_t i = 0; i < m.buckets.size(); ++i) m.buckets[i] += s->buckets[i];
      m.count += s->count;
      m.exact_sum.add(s->sum);
      lo = std::min(lo, s->min);
      hi = std::max(hi, s->max);
    }
  }
  m.sum = m.exact_sum.value();
  m.min = (m.count == 0 || std::isinf(lo)) ? 0.0 : lo;
  m.max = (m.count == 0 || std::isinf(hi)) ? 0.0 : hi;
  return m;
}

double Histogram::mean() const {
  const Merged m = merged();
  return m.count == 0 ? 0.0 : m.sum / static_cast<double>(m.count);
}

double Histogram::percentile(double p) const {
  const Merged m = merged();
  return percentile_from_buckets(bounds_, m.buckets, m.count, m.min, m.max, p);
}

void Histogram::reset() {
  const LockedShards locked(*this);
  for (Shard* s : locked.shards()) {
    if (!s) continue;
    std::fill(s->buckets.begin(), s->buckets.end(), 0);
    s->count = 0;
    s->sum = ExactSum{};
    s->min = std::numeric_limits<double>::infinity();
    s->max = -std::numeric_limits<double>::infinity();
  }
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsRegistry::label_string() const {
  std::string out;
  for (const auto& [k, v] : labels_) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::shared_ptr<MetricsRegistry> MetricsRegistry::scoped(Labels extra) {
  Labels combined = labels_;
  for (auto& kv : extra) combined.push_back(std::move(kv));
  auto child = std::make_shared<MetricsRegistry>(std::move(combined));
  const std::lock_guard<std::mutex> lock(children_mutex_);
  // make_shared puts a child and its control block in one allocation, so
  // every expired reference keeps the dead child's bytes alive. Prune
  // them once the list has doubled since the last prune: amortized O(1)
  // per call, and at most twice the live children (or the floor) held.
  if (children_.size() >= prune_at_) {
    std::erase_if(children_, [](const auto& weak) { return weak.expired(); });
    constexpr std::size_t kPruneFloor = 32;
    prune_at_ = std::max(kPruneFloor, 2 * children_.size());
  }
  children_.push_back(child);
  return child;
}

std::size_t MetricsRegistry::tracked_children() const {
  const std::lock_guard<std::mutex> lock(children_mutex_);
  return children_.size();
}

std::vector<CohortAggregate> MetricsRegistry::aggregate_cohorts() const {
  // Pin the live children first; expired ones are pruned in passing.
  std::vector<std::shared_ptr<MetricsRegistry>> children;
  {
    const std::lock_guard<std::mutex> lock(children_mutex_);
    std::vector<std::weak_ptr<MetricsRegistry>> live;
    live.reserve(children_.size());
    for (const auto& weak : children_) {
      if (auto strong = weak.lock()) {
        children.push_back(std::move(strong));
        live.push_back(weak);
      }
    }
    children_.swap(live);
  }

  // Scalar metrics contribute one sample per session; histograms merge
  // buckets when every child shares the bounds, else fall back to the
  // per-session means as a scalar sample set.
  struct ScalarAgg {
    std::string type;
    std::vector<double> samples;
  };
  struct HistAgg {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t sessions = 0;
    std::uint64_t count = 0;
    ExactSum sum;  // exact, so the order children merge in is moot
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::vector<double> means;  // fallback when bounds differ
    bool mixed_bounds = false;
  };
  std::map<std::string, ScalarAgg> scalars;
  std::map<std::string, HistAgg> hists;

  for (const auto& child : children) {
    const std::lock_guard<std::mutex> lock(child->mutex_);
    for (const auto& [name, c] : child->counters_) {
      auto& agg = scalars[name];
      agg.type = "counter";
      agg.samples.push_back(static_cast<double>(c->value()));
    }
    for (const auto& [name, g] : child->gauges_) {
      auto& agg = scalars[name];
      agg.type = "gauge";
      agg.samples.push_back(g->value());
    }
    for (const auto& [name, h] : child->histograms_) {
      auto& agg = hists[name];
      const Histogram::Merged m = h->merged();
      if (agg.sessions == 0) {
        agg.bounds = h->bounds();
        agg.buckets.assign(m.buckets.size(), 0);
      } else if (agg.bounds != h->bounds()) {
        agg.mixed_bounds = true;
      }
      ++agg.sessions;
      if (!agg.mixed_bounds) {
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          agg.buckets[i] += m.buckets[i];
        }
      }
      agg.count += m.count;
      agg.sum.add(m.exact_sum);
      if (m.count > 0) {
        agg.min = std::min(agg.min, m.min);
        agg.max = std::max(agg.max, m.max);
        agg.means.push_back(m.sum / static_cast<double>(m.count));
      }
    }
  }

  std::vector<CohortAggregate> out;
  out.reserve(scalars.size() + hists.size());
  for (auto& [name, agg] : scalars) {
    CohortAggregate row;
    row.name = name;
    row.type = agg.type;
    row.sessions = agg.samples.size();
    row.count = agg.samples.size();
    std::sort(agg.samples.begin(), agg.samples.end());
    for (const double v : agg.samples) row.sum += v;
    row.min = agg.samples.front();
    row.max = agg.samples.back();
    row.mean = row.sum / static_cast<double>(agg.samples.size());
    row.p50 = sorted_percentile(agg.samples, 50.0);
    row.p95 = sorted_percentile(agg.samples, 95.0);
    row.p99 = sorted_percentile(agg.samples, 99.0);
    out.push_back(std::move(row));
  }
  for (auto& [name, agg] : hists) {
    CohortAggregate row;
    row.name = name;
    row.type = "histogram";
    row.sessions = agg.sessions;
    row.count = agg.count;
    row.sum = agg.sum.value();
    row.min = std::isinf(agg.min) ? 0.0 : agg.min;
    row.max = std::isinf(agg.max) ? 0.0 : agg.max;
    row.mean = agg.count == 0 ? 0.0 : row.sum / static_cast<double>(agg.count);
    if (!agg.mixed_bounds) {
      row.p50 = percentile_from_buckets(agg.bounds, agg.buckets, agg.count,
                                        row.min, row.max, 50.0);
      row.p95 = percentile_from_buckets(agg.bounds, agg.buckets, agg.count,
                                        row.min, row.max, 95.0);
      row.p99 = percentile_from_buckets(agg.bounds, agg.buckets, agg.count,
                                        row.min, row.max, 99.0);
    } else {
      std::sort(agg.means.begin(), agg.means.end());
      row.p50 = sorted_percentile(agg.means, 50.0);
      row.p95 = sorted_percentile(agg.means, 95.0);
      row.p99 = sorted_percentile(agg.means, 99.0);
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const CohortAggregate& a, const CohortAggregate& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::publish_cohorts(const std::string& prefix) {
  publish_cohorts(prefix, *this);
}

void MetricsRegistry::publish_cohorts(const std::string& prefix,
                                      MetricsRegistry& into) const {
  for (const auto& agg : aggregate_cohorts()) {
    const std::string base =
        prefix.empty() ? agg.name : prefix + "." + agg.name;
    into.gauge(base + ".sessions").set(static_cast<double>(agg.sessions));
    into.gauge(base + ".count").set(static_cast<double>(agg.count));
    into.gauge(base + ".sum").set(agg.sum);
    into.gauge(base + ".min").set(agg.min);
    into.gauge(base + ".max").set(agg.max);
    into.gauge(base + ".mean").set(agg.mean);
    into.gauge(base + ".p50").set(agg.p50);
    into.gauge(base + ".p95").set(agg.p95);
    into.gauge(base + ".p99").set(agg.p99);
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string labels = label_string();
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.type = "counter";
    s.labels = labels;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.type = "gauge";
    s.labels = labels;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.type = "histogram";
    s.labels = labels;
    const Histogram::Merged m = h->merged();
    s.value = m.count == 0 ? 0.0 : m.sum / static_cast<double>(m.count);
    s.count = m.count;
    s.min = m.min;
    s.max = m.max;
    s.p50 = percentile_from_buckets(h->bounds(), m.buckets, m.count, m.min,
                                    m.max, 50.0);
    s.p95 = percentile_from_buckets(h->bounds(), m.buckets, m.count, m.min,
                                    m.max, 95.0);
    s.p99 = percentile_from_buckets(h->bounds(), m.buckets, m.count, m.min,
                                    m.max, 99.0);
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& s : snapshot()) {
    os << "{\"name\":\"" << json::escape(s.name) << "\",\"type\":\"" << s.type
       << "\",\"value\":" << json::number(s.value);
    if (!s.labels.empty()) {
      os << ",\"labels\":\"" << json::escape(s.labels) << "\"";
    }
    if (s.type == "histogram") {
      os << ",\"count\":" << s.count << ",\"min\":" << json::number(s.min)
         << ",\"max\":" << json::number(s.max)
         << ",\"p50\":" << json::number(s.p50)
         << ",\"p95\":" << json::number(s.p95)
         << ",\"p99\":" << json::number(s.p99);
    }
    os << "}\n";
  }
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::vector<double> default_histogram_bounds() {
  std::vector<double> bounds;
  bounds.reserve(3 * 19);
  for (int decade = -9; decade <= 9; ++decade) {
    const double base = std::pow(10.0, decade);
    bounds.push_back(base);
    bounds.push_back(2.0 * base);
    bounds.push_back(5.0 * base);
  }
  return bounds;
}

}  // namespace ironic::obs
