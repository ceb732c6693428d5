// micro_lookup_hotpath — the zero-copy read path's hit throughput.
//
// What it measures: the cache node's lookup hot path (cache_shard.{h,cc}): lock-free lookups
// under epoch-based reclamation that alias the resident buffer, deferred LRU/score touches,
// and hash-once key routing.
//
// Workload: read-mostly (99% lookups of resident keys, 1% unknown-key misses), single
// requester, measured in wall-clock time on the host it runs on, over {1, 16} shards x {256 B,
// 4 KiB, 16 KiB} values. A trailing thread sweep ({1,2,4,8} readers x {1,16} shards, 4 KiB)
// measures multi-core hit scaling: hits take no lock at all, so aggregate throughput should
// rise with reader count instead of serializing on the shard mutex.
//
// The copy/exclusive read path this benchmark used to run beside it (exclusive shard lock,
// deep-copied payload, inline LRU/score maintenance per hit) is gone. Its last recorded
// single-shard 4 KiB reading, 1.6422 Mops in the checked-in BENCH_lookup_hotpath.json, is
// kept as a frozen baseline and written as s1_v4096_exclusive_copy_mops_frozen.
//
// Gates (TXCACHE_BENCH_GATE=0 to disable):
//   1. single-shard hit throughput on 4 KiB values must be >= 1.5x the frozen copy/exclusive
//      baseline, i.e. an absolute floor of 2.46 Mops;
//   2. 8-thread aggregate throughput on 16 shards must be >= 3x the 1-thread run.
// Gate 2 needs real cores to mean anything — when std::thread::hardware_concurrency() is
// below the sweep width (single-core CI hosts), it auto-relaxes to informational: the
// scaling_8t_over_1t metric is still measured and written, but does not fail the run.
// Results land in BENCH_lookup_hotpath.json via bench::BenchJson for cross-PR perf tracking.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/cache_server.h"
#include "src/util/clock.h"
#include "src/util/rng.h"

namespace txcache {
namespace {

constexpr size_t kKeys = 2048;
// Single-shard 4 KiB copy/exclusive throughput, last measured before that path was deleted.
constexpr double kFrozenExclusiveCopyMops = 1.6422;

std::string KeyName(size_t k) { return "key-" + std::to_string(k); }

std::unique_ptr<CacheServer> MakeServer(const Clock* clock, size_t shards, size_t value_bytes) {
  CacheOptions options;
  options.num_shards = shards;
  // Roomy budget: this benchmark measures the hit path, not eviction.
  options.capacity_bytes = kKeys * (value_bytes + 512) * 2;
  auto server = std::make_unique<CacheServer>("hotpath", clock, options);
  for (size_t k = 0; k < kKeys; ++k) {
    InsertRequest req;
    req.key = KeyName(k);
    req.value = std::string(value_bytes, static_cast<char>('a' + k % 23));
    req.interval = {1, kTimestampInfinity};
    req.computed_at = 1;
    req.tags = {InvalidationTag::Concrete("items", "idx", "g" + std::to_string(k % 64))};
    req.fill_cost_us = 500;
    req.key_hash = Fnv1a(req.key);
    Status st = server->Insert(req);
    if (!st.ok()) {
      std::fprintf(stderr, "warm insert failed: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  return server;
}

// One requester hammering `server` with `ops` lookups, 99% resident / 1% unknown keys, the
// client-side hash computed once per request (the production hot path). Returns Mops/s.
double RunReader(CacheServer& server, uint64_t ops, uint64_t seed) {
  Rng rng(seed);
  // Pre-build the request stream so the measured loop is lookups, not key formatting.
  std::vector<LookupRequest> reqs(1024);
  for (LookupRequest& req : reqs) {
    const bool miss = rng.Bernoulli(0.01);
    req.key = miss ? "unknown-" + std::to_string(rng.Uniform(0, 1 << 20))
                   : KeyName(static_cast<size_t>(rng.Uniform(0, kKeys - 1)));
    req.key_hash = Fnv1a(req.key);
    req.bounds_lo = 1;
    req.bounds_hi = kTimestampInfinity;
  }
  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    LookupResponse resp = server.Lookup(reqs[i % reqs.size()]);
    if (resp.hit) {
      // Touch one byte of the payload (the alias) like a real consumer would.
      sink += static_cast<uint8_t>((*resp.value)[0]);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  if (sink == 0) {
    std::fprintf(stderr, "no hits?\n");
    std::exit(2);
  }
  return static_cast<double>(ops) / seconds / 1e6;
}

double RunOne(size_t shards, size_t value_bytes, uint64_t ops) {
  ManualClock clock;
  auto server = MakeServer(&clock, shards, value_bytes);
  RunReader(*server, ops / 8, 1);  // warm-up pass (page in, steady-state allocator)
  return RunReader(*server, ops, 2);
}

double RunThreaded(size_t shards, size_t value_bytes, uint64_t ops, size_t threads) {
  ManualClock clock;
  auto server = MakeServer(&clock, shards, value_bytes);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&server, t, ops] { RunReader(*server, ops, 100 + t); });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return static_cast<double>(ops * threads) / seconds / 1e6;
}

}  // namespace
}  // namespace txcache

int main() {
  using namespace txcache;
  const uint64_t ops = bench::EnvOps(400'000);

  std::printf("================================================================\n");
  std::printf("micro_lookup_hotpath: zero-copy lock-free reads\n");
  std::printf("read-mostly (99%% hit), %zu resident keys, %llu ops/cell "
              "(TXCACHE_BENCH_OPS)\n",
              kKeys, static_cast<unsigned long long>(ops));
  std::printf("================================================================\n");
  std::printf("%7s %9s %16s\n", "shards", "value", "zero-copy Mops");

  bench::BenchJson json("lookup_hotpath");
  double gate_speedup = 0;  // single-shard, 4 KiB, over the frozen baseline
  for (size_t shards : {size_t{1}, size_t{16}}) {
    for (size_t value_bytes : {size_t{256}, size_t{4096}, size_t{16384}}) {
      const double fast = RunOne(shards, value_bytes, ops);
      std::printf("%7zu %8zuB %16.2f\n", shards, value_bytes, fast);
      const std::string cell =
          "s" + std::to_string(shards) + "_v" + std::to_string(value_bytes);
      json.Add(cell + "_zero_copy_mops", fast);
      if (shards == 1 && value_bytes == 4096) {
        gate_speedup = fast / kFrozenExclusiveCopyMops;
        json.Add(cell + "_exclusive_copy_mops_frozen", kFrozenExclusiveCopyMops);
        json.Add(cell + "_speedup", gate_speedup);
      }
    }
  }

  // Thread sweep: aggregate zero-copy throughput as reader count grows. With EBR-guarded
  // lock-free hits the per-shard mutex is out of the hit path entirely, so 16-shard (and
  // even 1-shard) aggregate throughput should scale with cores. Each cell divides the op
  // budget across threads so wall-clock per cell stays flat.
  std::printf("\n%7s %7s %8s %22s\n", "threads", "shards", "value", "zero-copy agg Mops");
  const unsigned hw_threads = std::thread::hardware_concurrency();
  double mt1_s16 = 0, mt8_s16 = 0;
  for (size_t shards : {size_t{1}, size_t{16}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const double agg = RunThreaded(shards, 4096, ops / threads, threads);
      if (shards == 16 && threads == 1) mt1_s16 = agg;
      if (shards == 16 && threads == 8) mt8_s16 = agg;
      std::printf("%7zu %7zu %8s %22.2f\n", threads, shards, "4096B", agg);
      json.Add("mt" + std::to_string(threads) + "_s" + std::to_string(shards) +
                   "_v4096_zero_copy_mops",
               agg);
    }
  }

  const double scaling = mt1_s16 > 0 ? mt8_s16 / mt1_s16 : 0;
  json.Add("scaling_8t_over_1t", scaling);
  json.Add("gate_single_shard_4k_speedup", gate_speedup);
  json.Write();

  const bool speedup_ok = gate_speedup >= 1.5;
  // The scaling gate only binds when the host can actually run the sweep in parallel.
  const bool scaling_binds = hw_threads >= 8;
  const bool scaling_ok = scaling >= 3.0;
  std::printf("\nsingle-shard 4 KiB speedup over the frozen %.4f Mops copy/exclusive baseline: "
              "%.2fx (target >= 1.50x): %s\n",
              kFrozenExclusiveCopyMops, gate_speedup,
              speedup_ok ? "PASS" : "FAIL");
  std::printf("8-thread/1-thread scaling, 16 shards: %.2fx (target >= 3.00x): %s\n", scaling,
              !scaling_binds
                  ? "INFO (host reports < 8 hardware threads; gate relaxed)"
                  : (scaling_ok ? "PASS" : "FAIL"));
  const bool pass = speedup_ok && (scaling_ok || !scaling_binds);
  return pass || !bench::GateEnabled() ? 0 : 1;
}
