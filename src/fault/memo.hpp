// One exact memo for every plant whose measure is a pure function of
// its inputs: RectifierPlant segments (SegmentMemo) and bio-impedance
// measures (BioZMemo) are both instances of ExactMemo.
//
// Each key is simulated once. The mutex is never held while a
// simulation runs: the first requester inserts a per-key shared future
// and simulates outside the lock, and a second request for a key still
// in flight waits for that result instead of recomputing. Hits and
// misses are therefore exact and independent of thread count (misses ==
// distinct keys). A simulation that throws stores its exception, and
// every requester of that key sees the same failure.
//
// A memo is only as exact as its key, and the keys are complete: each
// carries, bit for bit, every input its simulation reads that can
// differ anywhere in the process (what it leaves out, such as the
// Newton options and the circuit recipe, is fixed in the code). An
// entry is therefore valid for as long as it is held, and a memo's
// scope is a memory choice, not a correctness one: one call for a
// campaign, and two generations for a long-lived fleet service.
//
// Generations: rotate() turns the current entries into a read-only
// previous generation, drops the older one and resets the counts. The
// first lookup of a key the previous generation holds copies that entry
// (value or stored exception, and pin) into the current one instead of
// simulating, and counts as one hit and one carry. So a memo rotated at
// the start of every run holds at most the distinct keys of its last
// two runs, and each run's misses + carried are its distinct keys.
#pragma once

#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace ironic::fault {

template <class Key, class Value>
class ExactMemo {
 public:
  // The value for `key`, calling `simulate` only on the first request.
  // The entry keeps `pin` (may be null) alive as long as the memo holds
  // the key: a key that names an object by its address pins that object,
  // so the address cannot be reused by another object while the key
  // exists.
  template <class Simulate>
  Value lookup(const Key& key, std::shared_ptr<const void> pin,
               Simulate&& simulate) {
    std::optional<std::promise<Value>> computing;  // engaged on a miss
    std::shared_future<Value> value;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, inserted] = entries_.try_emplace(key);
      if (!inserted) {
        ++hits_;
      } else if (const auto old = previous_.find(key);
                 old != previous_.end()) {
        ++hits_;
        ++carried_;
        it->second = old->second;
      } else {
        ++misses_;
        computing.emplace();
        it->second.pin = std::move(pin);
        it->second.value = computing->get_future().share();
      }
      value = it->second.value;
    }
    if (computing.has_value()) {
      try {
        computing->set_value(simulate());
      } catch (...) {
        computing->set_exception(std::current_exception());
      }
    }
    // Waits while another requester is still simulating this key;
    // rethrows a stored failure.
    return value.get();
  }

  // Starts a generation: the current entries become the previous one,
  // the older generation is released, and the counts restart at 0.
  void rotate() {
    std::map<Key, Entry> released;  // freed after the lock is dropped
    const std::lock_guard<std::mutex> lock(mutex_);
    released.swap(previous_);
    previous_.swap(entries_);
    hits_ = 0;
    misses_ = 0;
    carried_ = 0;
  }

  // Counts since the last rotate(); carried() is the part of hits() the
  // previous generation answered.
  std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }

  std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

  std::uint64_t carried() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return carried_;
  }

 private:
  struct Entry {
    std::shared_ptr<const void> pin;
    std::shared_future<Value> value;
  };
  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::map<Key, Entry> previous_;  // read-only: lookups copy out of it
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t carried_ = 0;
};

}  // namespace ironic::fault
