// The zero-copy read path (docs/architecture.md §"Read fast path"):
//   * a hit aliases the resident value/tag buffers — pointer identity, zero deep copies —
//     and the alias stays readable and bitwise stable after eviction, truncation, flush and
//     even destruction of the owning server;
//   * lookups take no shard lock, shared or exclusive: with a shard's exclusive lock held by
//     another thread, hits, batched hits and misses on that shard still complete, while an
//     insert to it waits for the release;
//   * hit-time LRU/score maintenance is deferred into the touch buffer and drained by the
//     next exclusive-section operation, preserving LRU monotonicity — including when the
//     buffer overflows and the drain repairs the order from a snapshot of the per-version
//     ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/cache/cache_server.h"
#include "src/cache/cache_types.h"
#include "src/core/cacheable_function.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace txcache {

// Test-only access to one shard's lock; CacheServer and CacheShard befriend it.
struct ShardLockTestPeer {
  static std::shared_mutex& Lock(CacheServer& server, size_t shard) {
    return server.shards_[shard]->mu_;
  }
};

namespace {

using namespace txcache::testing;

InsertRequest StillValidInsert(const std::string& key, std::string value,
                               Timestamp lower = 1) {
  InsertRequest req;
  req.key = key;
  req.value = std::move(value);
  req.interval = {lower, kTimestampInfinity};
  req.computed_at = lower;
  req.tags = {InvalidationTag::Concrete("t", "idx", key)};
  return req;
}

LookupRequest Probe(const std::string& key) {
  LookupRequest req;
  req.key = key;
  req.bounds_lo = 1;
  req.bounds_hi = kTimestampInfinity;
  return req;
}

InvalidationMessage Invalidate(uint64_t seqno, Timestamp ts, const std::string& key) {
  InvalidationMessage msg;
  msg.seqno = seqno;
  msg.ts = ts;
  msg.tags = {InvalidationTag::Concrete("t", "idx", key)};
  return msg;
}

TEST(ZeroCopyReads, HitAliasesResidentBufferWithPointerIdentity) {
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 2;
  CacheServer server("alias", &clock, options);
  ASSERT_TRUE(server.Insert(StillValidInsert("k", "payload")).ok());

  LookupResponse first = server.Lookup(Probe("k"));
  LookupResponse second = server.Lookup(Probe("k"));
  ASSERT_TRUE(first.hit);
  ASSERT_TRUE(second.hit);
  // Zero-copy means aliasing: both hits hand out the SAME resident buffer, not copies.
  EXPECT_EQ(first.value.get(), second.value.get());
  ASSERT_TRUE(first.tags != nullptr);
  EXPECT_EQ(first.tags.get(), second.tags.get()) << "tag blocks must alias too";
  EXPECT_EQ(first.value_ref(), "payload");

  // The batched path aliases the same buffer as the single-key path.
  MultiLookupRequest batch;
  batch.lookups.push_back(Probe("k"));
  MultiLookupResponse multi = server.MultiLookup(batch);
  ASSERT_TRUE(multi.responses[0].hit);
  EXPECT_EQ(multi.responses[0].value.get(), first.value.get());
}

TEST(ZeroCopyReads, AliasSurvivesTruncationEvictionFlushAndServerDestruction) {
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 1;
  options.capacity_bytes = 16 * 1024;  // a handful of 4 KiB entries
  auto server = std::make_unique<CacheServer>("lifetime", &clock, options);
  const std::string payload(4096, 'z');
  ASSERT_TRUE(server->Insert(StillValidInsert("k", payload)).ok());

  LookupResponse hit = server->Lookup(Probe("k"));
  ASSERT_TRUE(hit.hit);
  const std::string* raw = hit.value.get();

  // Truncation narrows the version's interval but never rewrites the payload bytes.
  server->Deliver(Invalidate(1, 50, "k"));
  EXPECT_EQ(hit.value.get(), raw);
  EXPECT_EQ(*hit.value, payload);

  // Capacity eviction destroys the version; the reader's alias keeps the buffer alive.
  LookupRequest pinned = Probe("k");
  pinned.bounds_hi = 49;  // the truncated version still serves old snapshots
  LookupResponse again = server->Lookup(pinned);
  ASSERT_TRUE(again.hit);
  std::shared_ptr<const std::vector<InvalidationTag>> held_tags = hit.tags;
  ASSERT_TRUE(held_tags != nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        server->Insert(StillValidInsert("fill" + std::to_string(i), std::string(4096, 'f'), 60))
            .ok());
  }
  ASSERT_FALSE(server->Lookup(pinned).hit) << "test setup: the held version must be gone";
  EXPECT_EQ(again.value.get(), raw) << "the alias IS the evicted buffer, not a copy";
  EXPECT_EQ(*again.value, payload) << "alias must outlive the eviction, bit-stable";

  // Flush, then destroy the whole server: the alias stays readable.
  server->Flush();
  EXPECT_EQ(server->version_count(), 0u);
  EXPECT_EQ(*hit.value, payload);
  server.reset();
  EXPECT_EQ(*again.value, payload);
  EXPECT_EQ(held_tags->size(), 1u);
  EXPECT_EQ((*held_tags)[0].key, "k");
}

TEST(ZeroCopyReads, HitsAcquireNoExclusiveShardLock) {
  // Structural proof that lookups take no shard lock on either side: one thread holds a
  // shard's EXCLUSIVE lock, and hits, batched hits and misses routed to that shard must still
  // complete. An insert to the same shard must wait, which shows the held lock is the one a
  // writer needs.
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 4;
  CacheServer server("locks", &clock, options);
  const size_t shard = server.ShardIndexForKey("k0");
  std::vector<std::string> resident;
  std::string absent;
  for (int i = 0; resident.size() < 8 || absent.empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    if (server.ShardIndexForKey(key) != shard) {
      continue;
    }
    if (resident.size() < 8) {
      ASSERT_TRUE(server.Insert(StillValidInsert(key, "v")).ok());
      resident.push_back(key);
    } else {
      absent = key;
    }
  }

  std::unique_lock<std::shared_mutex> held(ShardLockTestPeer::Lock(server, shard));
  auto reads = std::async(std::launch::async, [&] {
    for (int round = 0; round < 10; ++round) {
      for (const std::string& key : resident) {
        if (!server.Lookup(Probe(key)).hit) {
          return false;
        }
      }
      if (server.Lookup(Probe(absent)).hit) {
        return false;
      }
    }
    MultiLookupRequest batch;
    for (const std::string& key : resident) {
      batch.lookups.push_back(Probe(key));
    }
    batch.lookups.push_back(Probe(absent));
    const MultiLookupResponse multi = server.MultiLookup(batch);
    for (size_t i = 0; i < resident.size(); ++i) {
      if (!multi.responses[i].hit) {
        return false;
      }
    }
    return !multi.responses.back().hit;
  });
  const bool finished = reads.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  held.unlock();  // a lookup that wrongly waits on the lock can now finish, so `reads` joins
  EXPECT_TRUE(finished) << "a lookup waited for the shard lock held by another thread";
  EXPECT_TRUE(reads.get()) << "wrong hit/miss outcome while the shard lock was held";

  held.lock();
  auto insert = std::async(std::launch::async,
                           [&] { return server.Insert(StillValidInsert(absent, "v")).ok(); });
  EXPECT_EQ(insert.wait_for(std::chrono::milliseconds(200)), std::future_status::timeout)
      << "an insert completed while the shard's exclusive lock was held";
  held.unlock();
  ASSERT_EQ(insert.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_TRUE(insert.get());
  EXPECT_TRUE(server.Lookup(Probe(absent)).hit);
}

// Builds a single-shard kLru server whose capacity fits exactly `fit` copies of a fixed-size
// test entry (a key shaped like `sample_key`, 64-byte value).
CacheOptions LruOptions(size_t fit, size_t touch_buffer = 1024,
                        const std::string& sample_key = "k0") {
  CacheOptions options;
  options.num_shards = 1;
  options.policy = EvictionPolicy::kLru;
  options.touch_buffer_capacity = touch_buffer;
  InsertRequest probe = StillValidInsert(sample_key, std::string(64, 'v'));
  options.capacity_bytes = fit * CacheShard::EstimateBytes(probe) + 8;
  return options;
}

TEST(ZeroCopyReads, DeferredTouchDrainsBeforeEvictionDecides) {
  // k0..k3 fill the cache; a deferred (not yet drained) hit on k0 must still protect it when
  // the next insert forces an eviction — the insert drains first, so k1 (the true LRU tail)
  // goes, not k0.
  ManualClock clock;
  CacheServer server("drain", &clock, LruOptions(4));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Insert(StillValidInsert("k" + std::to_string(i), std::string(64, 'v'))).ok());
  }
  ASSERT_TRUE(server.Lookup(Probe("k0")).hit);  // deferred touch, still in the buffer
  ASSERT_TRUE(server.Insert(StillValidInsert("k4", std::string(64, 'v'))).ok());
  EXPECT_TRUE(server.Lookup(Probe("k0")).hit) << "touched entry evicted: drain ran too late";
  EXPECT_FALSE(server.Lookup(Probe("k1")).hit) << "true LRU tail survived";
  EXPECT_EQ(server.stats().evictions_lru, 1u);
}

TEST(ZeroCopyReads, TouchBufferOverflowRepairsLruOrderFromTicks) {
  // A 2-slot buffer drops the touch records for k2/k3, but their recency ticks were still
  // written; the drain's overflow repair re-sorts the LRU list from the ticks, so the
  // untouched k4/k5 are evicted first — NOT the touched-but-dropped k2/k3.
  ManualClock clock;
  CacheServer server("overflow", &clock, LruOptions(6, /*touch_buffer=*/2));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.Insert(StillValidInsert("k" + std::to_string(i), std::string(64, 'v'))).ok());
  }
  for (int i = 0; i < 4; ++i) {  // 4 hits into a 2-slot buffer: k2 and k3 overflow
    ASSERT_TRUE(server.Lookup(Probe("k" + std::to_string(i))).hit);
  }
  ASSERT_TRUE(server.Insert(StillValidInsert("k6", std::string(64, 'v'))).ok());
  ASSERT_TRUE(server.Insert(StillValidInsert("k7", std::string(64, 'v'))).ok());
  EXPECT_FALSE(server.Lookup(Probe("k4")).hit) << "untouched entries must be evicted first";
  EXPECT_FALSE(server.Lookup(Probe("k5")).hit);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(server.Lookup(Probe("k" + std::to_string(i))).hit)
        << "k" << i << ": dropped touch record lost its recency — overflow repair failed";
  }
}

TEST(ZeroCopyReads, LruMonotonicityPropertyUnderRandomDrainInterleavings) {
  // Model check: a single-shard kLru node under random insert/hit interleavings must evict in
  // exactly the order a reference LRU list predicts, for both a roomy touch buffer and a
  // 1-slot buffer that overflows constantly (exercising the tick-sort repair on every drain).
  for (size_t buffer : {size_t{1024}, size_t{1}}) {
    for (uint64_t seed : {11u, 23u, 47u}) {
      ManualClock clock;
      CacheServer server("prop", &clock, LruOptions(8, buffer, "k1000"));
      Rng rng(seed);
      std::list<std::string> model_lru;  // front = most recent
      auto model_touch = [&model_lru](const std::string& key) {
        model_lru.remove(key);
        model_lru.push_front(key);
      };
      int next_key = 0;
      // Fixed-width keys so every entry has identical EstimateBytes and the capacity always
      // fits exactly 8 of them.
      auto key_name = [](int k) { return "k" + std::to_string(1000 + k); };
      for (int step = 0; step < 400; ++step) {
        if (model_lru.empty() || rng.Bernoulli(0.35)) {
          const std::string key = key_name(next_key++);
          ASSERT_TRUE(server.Insert(StillValidInsert(key, std::string(64, 'v'))).ok());
          model_touch(key);
          if (model_lru.size() > 8) {
            model_lru.pop_back();  // the server must have evicted exactly this key
          }
        } else {
          // Hit a random resident key (per the model); the server must agree it is resident.
          auto it = model_lru.begin();
          std::advance(it, static_cast<long>(rng.Uniform(0, static_cast<int64_t>(model_lru.size()) - 1)));
          const std::string key = *it;
          ASSERT_TRUE(server.Lookup(Probe(key)).hit)
              << "buffer=" << buffer << " seed=" << seed << " step=" << step << " key=" << key;
          model_touch(key);
        }
      }
      // Survivor set must match the model exactly: anything else means an eviction took a
      // version that was not the least recently touched (monotonicity violation).
      for (int k = 0; k < next_key; ++k) {
        const std::string key = key_name(k);
        const bool model_resident =
            std::find(model_lru.begin(), model_lru.end(), key) != model_lru.end();
        EXPECT_EQ(server.Lookup(Probe(key)).hit, model_resident)
            << "buffer=" << buffer << " seed=" << seed << " key=" << key;
      }
    }
  }
}

TEST(ZeroCopyReads, FunctionHitsFlowThroughDeferredDrain) {
  ManualClock clock;
  CacheOptions options;
  options.num_shards = 2;
  CacheServer server("fnhits", &clock, options);  // kCostAware default
  const std::string key_a = MakeCacheKey("get_user", int64_t{1});
  const std::string key_b = MakeCacheKey("get_item", int64_t{2});
  InsertRequest a = StillValidInsert(key_a, "ua");
  InsertRequest b = StillValidInsert(key_b, "ib");
  ASSERT_TRUE(server.Insert(a).ok());
  ASSERT_TRUE(server.Insert(b).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Lookup(Probe(key_a)).hit);
  }
  ASSERT_TRUE(server.Lookup(Probe(key_b)).hit);
  // FunctionStats drains the touch buffers, so the profile reflects every completed hit even
  // though no mutating operation ran since.
  std::map<std::string, uint64_t> hits;
  for (const FunctionStatsEntry& e : server.FunctionStats()) {
    hits[e.function] = e.hits;
  }
  EXPECT_EQ(hits["get_user"], 5u);
  EXPECT_EQ(hits["get_item"], 1u);
}

}  // namespace
}  // namespace txcache
