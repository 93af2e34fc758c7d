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
// A memo is only as exact as its key: the key must carry, bit for bit,
// every input the simulation reads that can differ within the memo's
// scope. Inputs outside the key must be constant for the memo's
// lifetime, which is why memos are scoped to one fleet run or one
// campaign call and never live process-wide.
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
  // The entry keeps `pin` (may be null) alive as long as the memo: a key
  // that names an object by its address pins that object, so the address
  // cannot be reused by another object while the key exists.
  template <class Simulate>
  Value lookup(const Key& key, std::shared_ptr<const void> pin,
               Simulate&& simulate) {
    std::optional<std::promise<Value>> computing;  // engaged on a miss
    std::shared_future<Value> value;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        ++misses_;
        computing.emplace();
        it->second.pin = std::move(pin);
        it->second.value = computing->get_future().share();
      } else {
        ++hits_;
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

  std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }

  std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  struct Entry {
    std::shared_ptr<const void> pin;
    std::shared_future<Value> value;
  };
  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ironic::fault
