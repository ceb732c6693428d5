// Stats structs generated from one counter table.
//
// A stats struct (ClientStats, CacheStats) declares its counters as plain uint64_t fields and
// lists each of them once more, as a pointer to member, in `static constexpr kCounters[]`.
// Deriving from CounterTable<Struct> generates every struct-wide operation from that table:
// += and -= (fleet aggregation, measurement-window deltas), Snapshot() and Reset(). Each struct
// is followed by a static_assert tying its sizeof to the table length, so a counter added
// without a table entry fails to compile.
//
// Counters that other threads read while they are being written are bumped through Bump() and
// read through Snapshot(): both go through a relaxed std::atomic_ref, so the fields stay plain
// uint64_t for arithmetic on copies.
#ifndef SRC_UTIL_COUNTERS_H_
#define SRC_UTIL_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace txcache {

inline void Bump(uint64_t& counter, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(counter).fetch_add(n, std::memory_order_relaxed);
}

template <typename Stats>
struct CounterTable {
  Stats& operator+=(const Stats& o) {
    for (auto field : Stats::kCounters) {
      self().*field += o.*field;
    }
    return self();
  }
  Stats& operator-=(const Stats& o) {
    for (auto field : Stats::kCounters) {
      self().*field -= o.*field;
    }
    return self();
  }

  // A copy read with relaxed atomic loads: safe while other threads Bump() the counters.
  Stats Snapshot() const {
    Stats s;
    for (auto field : Stats::kCounters) {
      // atomic_ref<const T> is C++26; the load does not write through the reference.
      s.*field = std::atomic_ref<uint64_t>(const_cast<uint64_t&>(self().*field))
                     .load(std::memory_order_relaxed);
    }
    return s;
  }
  void Reset() {
    for (auto field : Stats::kCounters) {
      std::atomic_ref<uint64_t>(self().*field).store(0, std::memory_order_relaxed);
    }
  }

 private:
  Stats& self() { return static_cast<Stats&>(*this); }
  const Stats& self() const { return static_cast<const Stats&>(*this); }
};

}  // namespace txcache

#endif  // SRC_UTIL_COUNTERS_H_
