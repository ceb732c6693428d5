// End-to-end wall-clock benchmark: RUBiS pages and ad-hoc SQL through the whole stack,
// SqlSession -> TxCacheClient -> CacheTransport -> CacheServer/CacheShard -> Database.
//
// One process, pinned to one CPU, runs one workload with one closed-loop client thread: the
// next request is sent only when the previous one has completed, and each is timed from the
// outside with steady_clock. One client, because two concurrent clients on one node crash
// the process today (see README.md). A run has four stages:
//   1. set-up, timed and repeated; the last stack built is the one measured;
//   2. warm-up: where the node holds the working set, a prefill of everything the
//      read-only mix can reach; then a fixed count of untimed operations;
//   3. the measured phase, a fixed operation count per workload. Closed auctions accumulate
//      as the run goes, so fixing the count (not the time) leaves a fast build and a slow one
//      in the same database state;
//   4. the correctness oracles, untimed.
// Maintenance (Pincushion::Sweep, then Database::Vacuum) runs on the load thread between
// requests every 500 ms of wall time: outside per-request latency, inside throughput.
// Throughput is the measured ops over the measured phase's wall time; the latency
// percentiles are taken over every measured request.
//
// The last line of stdout is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics on an untraced run, the per-layer ones with --trace 1.
// The process exits non-zero when any oracle fails.
//
//   e2e_bench --workload W [--seed N] [--trace 0|1] [--smoke] [--out-dir D]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench/e2e/trace.h"
#include "src/cache/cache_cluster.h"
#include "src/core/txcache_client.h"
#include "src/net/net_server.h"
#include "src/net/transport.h"
#include "src/pincushion/pincushion.h"
#include "src/rubis/data.h"
#include "src/rubis/schema.h"
#include "src/rubis/session.h"
#include "src/sql/parser.h"
#include "src/sql/planner.h"
#include "src/sql/session.h"
#include "src/util/serde.h"

namespace txcache::e2e {
namespace {

using rubis::Interaction;

constexpr double kDatasetScale = 0.2;  // 32k users, 7k active and 10k closed auctions
constexpr int kSetupRepeats = 5;
// The client thread serves this many emulated users in turn, as the RUBiS client emulator
// does. With one user, every StoreBid lands on that user's about_me page, whose cost then
// grows through the run.
constexpr int kUserSessions = 64;
constexpr uint64_t kMaintenanceEveryNs = 500'000'000;
constexpr int kAuditKeys = 500;
// A slower build may stretch a phase this far before the run cuts it short (the process
// must end within its time limit); a cut run reports it, and its state is no longer the
// fixed-count state. The measured counts below take 10-25 s on a 4-vCPU VM.
constexpr uint64_t kPhaseCapNs = 60'000'000'000;

// The ad-hoc SQL statements' cost bucket (SqlSession files every cached SELECT under it).
const std::string kSqlSelectFunction = "sql.select";

struct Workload {
  const char* name;
  bool sql;         // 4-statement ad-hoc SQL transactions instead of RUBiS interactions
  bool read_only;   // RUBiS: read-write picks of the bidding mix are resampled
  bool socket;      // NetServer on 127.0.0.1 + socket transport instead of loopback
  bool optimistic;  // RUBiS read-write interactions run as optimistic transactions
  size_t capacity_bytes;
  WallClock staleness;
  uint64_t warmup_ops;
  // Prefill the cache before the warm-up (only where the node holds the working set).
  bool prefill;
  uint64_t measured_ops;
};

constexpr Workload kWorkloads[] = {
    {"rubis_browse_warm", false, true, false, false, size_t{256} << 20, Seconds(30),
     2'000'000, true, 18'000'000},
    {"sql_adhoc_hit", true, true, false, false, size_t{256} << 20, Seconds(30), 200'000, true,
     800'000},
    {"rubis_bidding_socket", false, false, true, true, size_t{256} << 20, Seconds(30),
     100'000, true, 900'000},
    {"rubis_bidding_fresh_small", false, false, false, false, size_t{8} << 20, 0, 60'000,
     false, 300'000},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

std::string N(int64_t v) { return std::to_string(v); }

// The four statements of one sql_adhoc_hit transaction.
std::array<std::string, 4> SqlStatements(int64_t item, int64_t user, int64_t category,
                                         int64_t page) {
  return {"SELECT * FROM items WHERE id = " + N(item),
          "SELECT * FROM users WHERE id = " + N(user),
          "SELECT user_id, bid, date FROM bids WHERE item_id = " + N(item) +
              " ORDER BY date DESC LIMIT 20",
          "SELECT id, name, max_bid FROM items WHERE category = " + N(category) +
              " ORDER BY end_date LIMIT 20 OFFSET " + N(page * 20)};
}

struct SqlPick {
  int64_t item, user, category, page;
};

SqlPick NextSqlPick(const rubis::RubisDataset& dataset, Rng& rng) {
  SqlPick p{};
  p.item = dataset.PickActiveItem(rng);
  p.user = dataset.PickUser(rng);
  p.category = dataset.PickCategory(rng);
  p.page = rng.Uniform(0, 2);
  return p;
}

CacheServer::Options NodeOptions(const Workload& w) {
  CacheServer::Options o;
  o.capacity_bytes = w.capacity_bytes;
  return o;
}

Pincushion::Options PincushionOptions(const Workload& w) {
  // Just past the staleness limit: with the 120 s default, pins pile up at staleness 0 and
  // throughput falls the longer a run lasts.
  Pincushion::Options o;
  o.unpin_after = w.staleness + Seconds(2);
  return o;
}

TxCacheClient::Options ClientOptions(const Workload& w, ClientMode mode) {
  TxCacheClient::Options o;
  o.default_staleness = w.staleness;
  o.mode = mode;
  return o;
}

// One complete system: database, bus, one cache node behind its transport, pincushion,
// dataset, the client and its sessions. Members are destroyed in reverse order, so the client
// goes before the cluster and the socket server, and those before the node they serve.
struct Stack {
  Stack(const Workload& workload, uint64_t seed, Tracer* tracer)
      : w(workload),
        seed(seed),
        tracer(tracer),
        db(&clock),
        node("e2e-node", &clock, NodeOptions(workload)),
        pincushion(&db, &clock, PincushionOptions(workload)),
        sql_rng(seed + 2) {}

  Status Init() {
    db.set_invalidation_bus(&bus);
    // The node must see the stream from its first message (the load's commits), or its
    // sequencer would wait forever on the gap.
    if (tracer != nullptr) {
      subscriber = std::make_unique<TimedSubscriber>(&node, tracer);
      bus.Subscribe(subscriber.get());
    } else {
      bus.Subscribe(&node);
    }
    auto loaded = rubis::LoadRubis(&db, rubis::RubisScale::InMemory(kDatasetScale), &clock, seed);
    if (!loaded.ok()) {
      return loaded.status();
    }
    dataset = loaded.take();

    std::shared_ptr<CacheTransport> transport;
    if (w.socket) {
      net::NetServerOptions options;
      options.num_workers = 1;
      net_server = std::make_unique<net::NetServer>(&node, options);
      Status st = net_server->Start();
      if (!st.ok()) {
        return st;
      }
      transport = MakeSocketTransport(node.name(), &node, "127.0.0.1", net_server->port());
    } else {
      transport = MakeLoopbackTransport(&node);
    }
    if (tracer != nullptr) {
      timed_transport = std::make_shared<TimedTransport>(transport, tracer);
      transport = timed_transport;
    }
    if (!cluster.AddNode(transport)) {
      return Status::Internal("could not add the cache node");
    }
    client = std::make_unique<TxCacheClient>(&db, &pincushion, &cluster, &clock,
                                             ClientOptions(w, ClientMode::kConsistent));
    if (w.sql) {
      sql = std::make_unique<sql::SqlSession>(client.get(), &db);
      sql->set_tag_mode(sql::SqlSession::TagMode::kDerived);
      sql->set_cache_selects(true);
      return Status::Ok();
    }
    for (int u = 0; u < kUserSessions; ++u) {
      sessions.push_back(std::make_unique<rubis::RubisSession>(
          client.get(), dataset.get(), &clock, seed * kUserSessions + static_cast<uint64_t>(u)));
      sessions.back()->set_optimistic_writes(w.optimistic);
      Status st = sessions.back()->app().EnableDerivedTags(&db);
      if (!st.ok()) {
        return st;
      }
    }
    return Status::Ok();
  }

  const Workload& w;
  const uint64_t seed;
  Tracer* const tracer;  // null on untraced runs: no decorators in the stack
  SystemClock clock;
  Database db;
  InvalidationBus bus;
  CacheServer node;
  std::unique_ptr<TimedSubscriber> subscriber;
  std::unique_ptr<net::NetServer> net_server;
  CacheCluster cluster;
  std::shared_ptr<TimedTransport> timed_transport;
  Pincushion pincushion;
  std::unique_ptr<rubis::RubisDataset> dataset;
  std::unique_ptr<TxCacheClient> client;
  std::vector<std::unique_ptr<rubis::RubisSession>> sessions;  // one per emulated user
  std::unique_ptr<sql::SqlSession> sql;
  Rng sql_rng;
};

enum class Outcome : uint8_t { kOk, kFailed };

// Runs operations against one stack and keeps the workload-level counts the oracles and
// metrics need.
class LoadGenerator {
 public:
  LoadGenerator(Stack* s, Tracer* tracer) : s_(*s), tracer_(*tracer), planner_(&s->db) {}

  Outcome RunOne() { return s_.w.sql ? SqlOp() : RubisOp(); }

  // Renders every page (or runs every statement) the read-only mix can reach, once, so the
  // measured phase starts warm instead of still paying first misses in the long tail of
  // item and user popularity.
  void Prefill() {
    const rubis::RubisScale& scale = s_.dataset->scale;
    if (s_.w.sql) {
      for (int64_t i = 0; i < scale.users; ++i) {
        if (s_.client->BeginRO().ok()) {
          for (const std::string& text : SqlStatements(i % scale.active_items, i,
                                                       i % scale.categories,
                                                       (i / scale.categories) % 3)) {
            s_.sql->Execute(text);
          }
          s_.client->Commit();
        }
      }
      return;
    }
    rubis::RubisApp& app = s_.sessions[0]->app();
    auto render = [&](const std::function<void()>& pages) {
      if (s_.client->BeginRO().ok()) {
        pages();
        s_.client->Commit();
      }
    };
    render([&] {
      app.browse_categories_page();
      app.browse_regions_page();
    });
    for (int64_t item = 0; item < scale.active_items; ++item) {
      render([&] {
        app.view_item_page(item);
        app.bid_history_page(item);
        app.item_bids(item);
      });
    }
    for (int64_t user = 0; user < scale.users; ++user) {
      render([&] { app.view_user_page(user); });
    }
    for (int64_t category = 0; category < scale.categories; ++category) {
      for (int64_t page = 0; page < 3; ++page) {
        render([&] { app.search_category_page(category, page); });
      }
      for (int64_t region = 0; region < scale.regions; ++region) {
        for (int64_t page = 0; page < 2; ++page) {
          render([&] { app.search_region_page(region, category, page); });
        }
      }
    }
  }

  // One maintenance round: Pincushion::Sweep, then Database::Vacuum.
  void Maintain() {
    {
      Tracer::Scope span = tracer_.Background(Layer::kSweep);
      s_.pincushion.Sweep();
    }
    {
      Tracer::Scope span = tracer_.Background(Layer::kVacuum);
      s_.db.Vacuum();
    }
  }

  uint64_t store_bids_ok = 0;
  uint64_t rw_attempts = 0;
  uint64_t rw_ok = 0;
  uint64_t statements = 0;
  uint64_t statement_hits = 0;
  // The SQL replay's own traffic, taken back out of the layer counts.
  ClientStats replay_client;
  CacheStats replay_cache;
  uint64_t replay_rpcs = 0;
  // Per replayed statement: the share of its Execute time the replayed parts do not cover.
  std::vector<double> unattributed;

 private:
  Outcome RubisOp() {
    rubis::RubisSession& session = *s_.sessions[next_session_++ % s_.sessions.size()];
    Interaction it = session.Next();
    while (s_.w.read_only && !rubis::IsReadOnly(it)) {
      it = session.Next();
    }
    const Status st = session.Run(it);
    if (!rubis::IsReadOnly(it)) {
      ++rw_attempts;
      rw_ok += st.ok() ? 1 : 0;
    }
    if (it == Interaction::kStoreBid && st.ok()) {
      ++store_bids_ok;
    }
    // kNotFound is the application's "auction already closed" answer, not an error.
    return st.ok() || st.code() == StatusCode::kNotFound ? Outcome::kOk : Outcome::kFailed;
  }

  Outcome SqlOp() {
    const SqlPick p = NextSqlPick(*s_.dataset, s_.sql_rng);
    if (!s_.client->BeginRO().ok()) {
      return Outcome::kFailed;
    }
    bool ok = true;
    for (const std::string& text : SqlStatements(p.item, p.user, p.category, p.page)) {
      const bool sampled = tracer_.sampled();
      // Whatever runs second finds the caches warm, so sampled statements alternate between
      // replaying after their Execute and before it; the two biases cancel in the median.
      const bool replay_first = sampled && replays_++ % 2 == 1;
      std::optional<ReplayParts> parts;
      if (replay_first) {
        parts = Replay(text);
      }
      Result<sql::SqlResult> r = Status::Internal("not run");
      {
        Tracer::Scope span = tracer_.Child(Layer::kSqlExecute);
        r = s_.sql->Execute(text);
      }
      if (!r.ok()) {
        ok = false;
        break;
      }
      ++statements;
      statement_hits += r.value().from_cache ? 1 : 0;
      if (sampled && r.value().from_cache) {
        if (!replay_first) {
          parts = Replay(text);
        }
        if (parts.has_value()) {
          RecordReplay(*parts, tracer_.samples(Layer::kSqlExecute).back());
        }
      }
    }
    auto commit = s_.client->Commit();
    return ok && commit.ok() ? Outcome::kOk : Outcome::kFailed;
  }

  // The replayed parts of one cached statement, in Layer order from kSqlParse.
  static constexpr Layer kReplayLayers[] = {Layer::kSqlParse, Layer::kSqlPlan,
                                            Layer::kSqlCopy,  Layer::kSqlKey,
                                            Layer::kSqlLookup, Layer::kSqlDecode};
  using ReplayParts = std::array<uint64_t, std::size(kReplayLayers)>;

  // Decomposes a cached Execute by running its parts on the same text: parse, plan (with
  // tag derivation), copying the plan's outputs, statement key, cache lookup and row decode,
  // each with the teardown Execute pays for it. Empty unless every part succeeded. The
  // replay's own time and traffic are taken back out of the request and the layer counts.
  std::optional<ReplayParts> Replay(const std::string& text) {
    const uint64_t begin = NowNs();
    const ClientStats client0 = s_.client->stats();
    const CacheStats cache0 = s_.cluster.TotalStats();
    const uint64_t rpcs0 = s_.timed_transport->calls();
    tracer_.set_suppressed(true);

    std::optional<Result<sql::Statement>> parsed;
    std::optional<Result<sql::PlannedSelect>> plan;
    std::vector<std::string> columns;
    const uint64_t t0 = NowNs();
    parsed.emplace(sql::Parse(text));
    const uint64_t t1 = NowNs();
    const auto* select =
        parsed->ok() ? std::get_if<sql::SelectStmt>(&parsed->value()) : nullptr;
    if (select != nullptr) {
      plan.emplace(planner_.PlanSelect(*select));
    }
    const uint64_t t2 = NowNs();
    const bool planned = plan.has_value() && plan->ok();
    if (planned) {  // the result's column labels and the session's last-derived tags
      columns = plan->value().column_names;
      last_derived_ = plan->value().derived_tags;
    }
    const uint64_t t3 = NowNs();
    const std::string key = sql::SqlSession::StatementCacheKey(text);
    const uint64_t t4 = NowNs();
    auto hit = s_.client->CacheLookup(key, &kSqlSelectFunction);
    const uint64_t t5 = NowNs();
    const bool decoded =
        hit.ok() && DeserializeFromString<std::vector<Row>>(*hit.value()).ok();
    const uint64_t t6 = NowNs();
    plan.reset();
    const uint64_t t7 = NowNs();
    parsed.reset();
    const uint64_t t8 = NowNs();

    tracer_.set_suppressed(false);
    replay_rpcs += s_.timed_transport->calls() - rpcs0;
    ClientStats client1 = s_.client->stats();
    client1 -= client0;
    replay_client += client1;
    CacheStats cache1 = s_.cluster.TotalStats();
    cache1 -= cache0;
    replay_cache += cache1;
    tracer_.Exclude(NowNs() - begin);
    if (!planned || !decoded) {
      return std::nullopt;
    }
    return ReplayParts{(t1 - t0) + (t8 - t7), (t2 - t1) + (t7 - t6), t3 - t2,
                       t4 - t3,               t5 - t4,               t6 - t5};
  }

  void RecordReplay(const ReplayParts& parts, uint32_t execute_ns) {
    uint64_t total = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      tracer_.samples(kReplayLayers[i]).push_back(static_cast<uint32_t>(parts[i]));
      total += parts[i];
    }
    unattributed.push_back(1.0 - static_cast<double>(total) / std::max<double>(execute_ns, 1));
  }

  Stack& s_;
  Tracer& tracer_;
  sql::Planner planner_;  // the replay's own planner, on the same catalog
  sql::DerivedTags last_derived_;  // the replay's copy of SqlSession's last-derived tags
  uint64_t replays_ = 0;
  uint64_t next_session_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample counts, printed on the human-readable line only
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// One stretch of the measured phase from one maintenance round to the next, that round
// included. The windows tile the phase; a traced run traces every other one.
struct Window {
  uint64_t ops;
  uint64_t ns;
  bool traced;
};

// Ops over wall time, pooled over the windows whose tracing is `traced`.
double OpsPerS(const std::vector<Window>& windows, bool traced) {
  uint64_t ops = 0;
  uint64_t ns = 0;
  for (const Window& win : windows) {
    if (win.traced == traced) {
      ops += win.ops;
      ns += win.ns;
    }
  }
  return Ratio(static_cast<double>(ops), static_cast<double>(ns) / 1e9);
}

// Pins the process to one CPU, the last it may run on; threads started later (the socket
// workload's server threads) inherit it. The client and the node's server thread then hand
// each request off on one core. Across vCPUs every hand-off is a wake-up whose cost on a VM
// follows the host's load, and it doubled the socket workload's run-to-run spread.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- oracles ---------------------------------------------------------------------------

struct RubisCounts {
  int64_t bids = 0;
  int64_t nb_of_bids = 0;  // summed over items and old_items
  int64_t old_items = 0;
};

Result<RubisCounts> CountRubis(Database& db) {
  auto txn = db.BeginReadOnly();
  if (!txn.ok()) {
    return txn.status();
  }
  RubisCounts c;
  auto bids = db.Execute(txn.value(), Query::From(AccessPath::SeqScan(rubis::kBids))
                                          .Project({rubis::BidsCol::kId}));
  if (!bids.ok()) {
    return bids.status();
  }
  c.bids = static_cast<int64_t>(bids.value().rows.size());
  for (const char* table : {rubis::kItems, rubis::kOldItems}) {
    auto rows = db.Execute(txn.value(), Query::From(AccessPath::SeqScan(table))
                                            .Project({rubis::ItemsCol::kNbOfBids}));
    if (!rows.ok()) {
      return rows.status();
    }
    for (const Row& r : rows.value().rows) {
      c.nb_of_bids += r[0].AsInt();
    }
    c.old_items = static_cast<int64_t>(rows.value().rows.size());  // old_items comes last
  }
  auto done = db.Commit(txn.value());
  if (!done.ok()) {
    return done.status();
  }
  return c;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// Reads three pages per key at staleness 0 through the workload's client and an uncached
// reference client; they must match byte for byte. FillLimit-paced listings are left out:
// the fleet's hints legitimately shrink those pages.
Check AuditRubis(Stack& s, uint64_t seed) {
  TxCacheClient reference(&s.db, &s.pincushion, &s.cluster, &s.clock,
                          ClientOptions(s.w, ClientMode::kNoCache));
  rubis::RubisApp reference_app(&reference, s.dataset.get(), &s.clock);
  if (!reference_app.EnableDerivedTags(&s.db).ok()) {
    return {"freshness_audit", false, "reference app setup failed"};
  }
  rubis::RubisApp& app = s.sessions[0]->app();
  auto render = [](TxCacheClient& client, rubis::RubisApp& a, int64_t item, int64_t user,
                   std::string* out) {
    if (!client.BeginRO(0).ok()) {
      return false;
    }
    *out = a.view_item_page(item).html;
    out->push_back('\0');
    *out += a.view_user_page(user).html;
    out->push_back('\0');
    *out += a.about_me_page(user).html;
    return client.Commit().ok();
  };
  Rng rng(seed + 3);
  const uint64_t hits0 = s.client->stats().cache_hits;
  int mismatches = 0;
  for (int k = 0; k < kAuditKeys; ++k) {
    const int64_t item = s.dataset->PickActiveItem(rng);
    const int64_t user = s.dataset->PickUser(rng);
    std::string got, want;
    if (!render(*s.client, app, item, user, &got) ||
        !render(reference, reference_app, item, user, &want) || got != want) {
      ++mismatches;
    }
  }
  const uint64_t hits = s.client->stats().cache_hits - hits0;
  return {"freshness_audit", mismatches == 0,
          N(mismatches) + " mismatches in " + N(kAuditKeys) + " keys, " + N(hits) +
              " audit reads were cache hits"};
}

Check AuditSql(Stack& s, uint64_t seed) {
  TxCacheClient reference(&s.db, &s.pincushion, &s.cluster, &s.clock,
                          ClientOptions(s.w, ClientMode::kNoCache));
  sql::SqlSession reference_sql(&reference, &s.db);
  reference_sql.set_tag_mode(sql::SqlSession::TagMode::kDerived);
  auto run = [](TxCacheClient& client, sql::SqlSession& session,
                const std::array<std::string, 4>& texts, std::string* out, int* hits) {
    if (!client.BeginRO(0).ok()) {
      return false;
    }
    out->clear();
    for (const std::string& text : texts) {
      auto r = session.Execute(text);
      if (!r.ok()) {
        client.Abort();
        return false;
      }
      *hits += r.value().from_cache ? 1 : 0;
      *out += SerializeToString(r.value().rows);
    }
    return client.Commit().ok();
  };
  Rng rng(seed + 3);
  int mismatches = 0;
  int hits = 0;
  int reference_hits = 0;
  for (int k = 0; k < kAuditKeys; ++k) {
    const SqlPick p = NextSqlPick(*s.dataset, rng);
    const auto texts = SqlStatements(p.item, p.user, p.category, p.page);
    std::string got, want;
    if (!run(*s.client, *s.sql, texts, &got, &hits) ||
        !run(reference, reference_sql, texts, &want, &reference_hits) || got != want) {
      ++mismatches;
    }
  }
  return {"freshness_audit", mismatches == 0 && reference_hits == 0,
          N(mismatches) + " mismatches in " + N(kAuditKeys) + " keys, " + N(hits) +
              " audit statements were cache hits"};
}

// --- output ----------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0;
}

// --- the run ---------------------------------------------------------------------------

// The counters the per-layer metrics are deltas of, read at both ends of the measured phase
// (before the oracles add traffic of their own), with the SQL replay's traffic taken out.
struct Counters {
  ClientStats client;
  CacheStats cache;
  DatabaseStats db;
  uint64_t rpcs = 0;
  uint64_t inserts = 0;
  uint64_t inserts_accepted = 0;
  uint64_t transport_failures = 0;
  uint64_t messages = 0;
  uint64_t rw_attempts = 0;
  uint64_t rw_ok = 0;
  uint64_t statements = 0;
  uint64_t statement_hits = 0;

  static Counters Read(const Stack& s, const LoadGenerator& g) {
    Counters c;
    c.client = s.client->stats();
    c.client -= g.replay_client;
    c.cache = s.cluster.TotalStats();
    c.cache -= g.replay_cache;
    c.db = s.db.stats();
    if (s.timed_transport != nullptr) {
      c.rpcs = s.timed_transport->calls() - g.replay_rpcs;
      c.inserts = s.timed_transport->inserts();
      c.inserts_accepted = s.timed_transport->inserts_accepted();
    }
    c.transport_failures = s.cluster.Transports()[0]->transport_failures();
    c.messages = s.subscriber != nullptr ? s.subscriber->messages() : 0;
    c.rw_attempts = g.rw_attempts;
    c.rw_ok = g.rw_ok;
    c.statements = g.statements;
    c.statement_hits = g.statement_hits;
    return c;
  }
};

// Reorders `latency_ns`.
std::vector<Metric> EndToEndMetrics(const std::vector<Window>& windows,
                                    std::vector<uint32_t>& latency_ns,
                                    const std::vector<double>& setup_s) {
  const auto ops = static_cast<int64_t>(latency_ns.size());
  const std::string n = N(ops) + " ops";
  return {
      {"throughput_ops", OpsPerS(windows, false), "ops/s", n},
      {"latency_p50_us", QuantileUs(latency_ns, 0.50), "us", n},
      {"latency_p99_us", QuantileUs(latency_ns, 0.99), "us",
       n + ", " + N(ops / 100) + " beyond p99"},
      {"setup_s", Median(setup_s), "s", "median of " + N(static_cast<int64_t>(setup_s.size()))},
      {"peak_rss_mb", PeakRssMb(), "MB", "VmHWM"},
  };
}

std::vector<Metric> LayerMetrics(Tracer& tracer, const LoadGenerator& load, const Counters& a,
                                 const Counters& b, const std::vector<Window>& windows,
                                 const std::vector<uint32_t>& latency_ns,
                                 double closed_item_frac, double bytes_used_mb) {
  auto p = [&](Layer layer, double q) { return QuantileUs(tracer.samples(layer), q); };
  auto count = [&](Layer layer) {
    return "n=" + N(static_cast<int64_t>(tracer.samples(layer).size()));
  };
  auto delta = [](uint64_t before, uint64_t after) { return static_cast<double>(after - before); };
  std::vector<uint32_t> rpc = tracer.samples(Layer::kRpcLookup);
  for (Layer layer : {Layer::kRpcInsert, Layer::kRpcIntent}) {
    rpc.insert(rpc.end(), tracer.samples(layer).begin(), tracer.samples(layer).end());
  }
  const std::string rpc_n = "n=" + N(static_cast<int64_t>(rpc.size()));
  ClientStats dc = b.client;
  dc -= a.client;
  CacheStats dk = b.cache;
  dk -= a.cache;
  const double ops = static_cast<double>(latency_ns.size());
  const double lookups = static_cast<double>(dc.cache_hits + dc.cache_misses);
  const double queries = delta(a.db.queries, b.db.queries);
  const double inserts = delta(a.inserts, b.inserts);
  const double rw_attempts = delta(a.rw_attempts, b.rw_attempts);
  const double statements = delta(a.statements, b.statements);
  const double traced = OpsPerS(windows, true);
  const double untraced = OpsPerS(windows, false);
  const double overhead = traced == 0 || untraced == 0 ? 0.0 : 1.0 - traced / untraced;
  const auto traced_windows = std::count_if(windows.begin(), windows.end(),
                                            [](const Window& win) { return win.traced; });
  return {
      {"sql.execute_us_p50", p(Layer::kSqlExecute, 0.5), "us", count(Layer::kSqlExecute)},
      {"sql.execute_us_p99", p(Layer::kSqlExecute, 0.99), "us", count(Layer::kSqlExecute)},
      {"sql.parse_us_p50", p(Layer::kSqlParse, 0.5), "us", count(Layer::kSqlParse)},
      {"sql.plan_us_p50", p(Layer::kSqlPlan, 0.5), "us", count(Layer::kSqlPlan)},
      {"sql.copy_us_p50", p(Layer::kSqlCopy, 0.5), "us", count(Layer::kSqlCopy)},
      {"sql.key_us_p50", p(Layer::kSqlKey, 0.5), "us", count(Layer::kSqlKey)},
      {"sql.lookup_us_p50", p(Layer::kSqlLookup, 0.5), "us", count(Layer::kSqlLookup)},
      {"sql.decode_us_p50", p(Layer::kSqlDecode, 0.5), "us", count(Layer::kSqlDecode)},
      {"sql.statement_hit_rate", Ratio(delta(a.statement_hits, b.statement_hits), statements),
       "frac", "n=" + N(static_cast<int64_t>(statements))},
      {"sql.unattributed_frac", Median(load.unattributed), "frac",
       "median of " + N(static_cast<int64_t>(load.unattributed.size())) + " statements"},
      {"core.self_us_p50", p(Layer::kCoreSelf, 0.5), "us", count(Layer::kCoreSelf)},
      {"core.self_us_p99", p(Layer::kCoreSelf, 0.99), "us", count(Layer::kCoreSelf)},
      {"core.lookups_per_op", Ratio(lookups, ops), "lookups/op", ""},
      {"core.hit_rate", Ratio(static_cast<double>(dc.cache_hits), lookups), "frac", ""},
      {"core.consistency_miss_frac",
       Ratio(static_cast<double>(dc.miss_consistency + dc.pin_set_rejects), lookups), "frac",
       ""},
      {"core.fill_cost_us_per_miss",
       Ratio(static_cast<double>(dc.recompute_cost_us), static_cast<double>(dc.cache_misses)),
       "us/miss", ""},
      {"core.rw_commit_frac", Ratio(delta(a.rw_ok, b.rw_ok), rw_attempts), "frac",
       "n=" + N(static_cast<int64_t>(rw_attempts))},
      {"pincushion.pins_created_per_txn",
       Ratio(static_cast<double>(dc.pins_created), static_cast<double>(dc.ro_txns + dc.rw_txns)),
       "pins/txn", ""},
      {"pincushion.sweep_us_p50", p(Layer::kSweep, 0.5), "us", count(Layer::kSweep)},
      {"net.rpc_us_p50", QuantileUs(rpc, 0.5), "us", rpc_n},
      {"net.rpc_us_p99", QuantileUs(rpc, 0.99), "us", rpc_n},
      {"net.rpcs_per_op", Ratio(delta(a.rpcs, b.rpcs), ops), "rpcs/op", ""},
      {"net.failures", delta(a.transport_failures, b.transport_failures), "count", ""},
      {"cache.lookup_us_p50", p(Layer::kRpcLookup, 0.5), "us", count(Layer::kRpcLookup)},
      {"cache.lookup_us_p99", p(Layer::kRpcLookup, 0.99), "us", count(Layer::kRpcLookup)},
      {"cache.insert_us_p50", p(Layer::kRpcInsert, 0.5), "us", count(Layer::kRpcInsert)},
      {"cache.insert_us_p99", p(Layer::kRpcInsert, 0.99), "us", count(Layer::kRpcInsert)},
      {"cache.hit_rate", dk.hit_rate(), "frac", ""},
      {"cache.evictions_per_insert",
       Ratio(static_cast<double>(dk.capacity_evictions()), static_cast<double>(dk.inserts)),
       "evictions/insert", ""},
      {"cache.insert_accept_frac", Ratio(delta(a.inserts_accepted, b.inserts_accepted), inserts),
       "frac", "n=" + N(static_cast<int64_t>(inserts))},
      {"cache.bytes_used_mb", bytes_used_mb, "MB", ""},
      {"bus.deliver_us_p50", p(Layer::kDeliver, 0.5), "us", count(Layer::kDeliver)},
      {"bus.deliver_us_p99", p(Layer::kDeliver, 0.99), "us", count(Layer::kDeliver)},
      {"bus.messages_per_op", Ratio(delta(a.messages, b.messages), ops), "msgs/op", ""},
      {"bus.truncations_per_message",
       Ratio(static_cast<double>(dk.invalidation_truncations),
             static_cast<double>(dk.invalidation_messages)),
       "truncations/msg", ""},
      {"db.queries_per_op", Ratio(queries, ops), "queries/op", ""},
      {"db.tuples_per_query", Ratio(delta(a.db.tuples_examined, b.db.tuples_examined), queries),
       "tuples/query", ""},
      {"db.vacuum_us_p50", p(Layer::kVacuum, 0.5), "us", count(Layer::kVacuum)},
      {"db.validation_conflict_frac",
       Ratio(delta(a.db.validation_conflicts, b.db.validation_conflicts),
             delta(a.db.validated_commits, b.db.validated_commits) +
                 delta(a.db.validation_conflicts, b.db.validation_conflicts)),
       "frac", ""},
      {"rubis.closed_item_frac", closed_item_frac, "frac", ""},
      {"trace_overhead_frac", overhead, "frac",
       N(traced_windows) + " traced vs " +
           N(static_cast<int64_t>(windows.size()) - traced_windows) + " untraced windows"},
  };
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t budget_divisor = args.smoke ? 100 : 1;
  const uint64_t warmup_ops = std::max<uint64_t>(1, w->warmup_ops / budget_divisor);
  const uint64_t budget = std::max<uint64_t>(1, w->measured_ops / budget_divisor);
  Tracer tracer;
  PinToOneCpu();

  // 1. Set-up, repeated; each earlier stack is torn down before the next is built.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < (args.smoke ? 1 : kSetupRepeats); ++r) {
    stack.reset();
    const uint64_t t0 = NowNs();
    auto built = std::make_unique<Stack>(*w, args.seed, args.trace ? &tracer : nullptr);
    Status st = built->Init();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    stack = std::move(built);
  }
  Stack& s = *stack;
  LoadGenerator load(&s, &tracer);
  Result<RubisCounts> counts0 = w->sql ? Result<RubisCounts>(RubisCounts{}) : CountRubis(s.db);
  if (!counts0.ok()) {
    std::fprintf(stderr, "counting failed: %s\n", counts0.status().ToString().c_str());
    return 1;
  }

  // 2. Warm-up.
  uint64_t failed = 0;
  bool warmup_cut = false;
  if (w->prefill && !args.smoke) {
    load.Prefill();
  }
  const uint64_t warmup_start = NowNs();
  uint64_t next_maintenance = warmup_start;
  for (uint64_t i = 0; i < warmup_ops && !warmup_cut; ++i) {
    const uint64_t now = NowNs();
    if (now >= next_maintenance) {
      load.Maintain();
      next_maintenance = now + kMaintenanceEveryNs;
    }
    failed += load.RunOne() == Outcome::kFailed ? 1 : 0;
    warmup_cut = now - warmup_start > kPhaseCapNs;
  }

  // 3. Measured phase. Each window runs from one maintenance round to the next, so every full
  // window holds exactly one round. Traced runs trace every other window.
  const Counters start = Counters::Read(s, load);
  std::vector<uint32_t> latency_ns(budget);
  std::vector<Window> windows;
  uint64_t done = 0;
  uint64_t measured_failed = 0;
  const uint64_t measured_start = NowNs();
  uint64_t now = measured_start;
  bool measured_cut = false;
  while (done < budget && !measured_cut) {
    const uint64_t window_start = now;
    const uint64_t window_first_op = done;
    const bool traced = args.trace && windows.size() % 2 == 0;
    tracer.set_window(traced);
    load.Maintain();
    const uint64_t due = now + kMaintenanceEveryNs;
    for (; done < budget && now < due; ++done) {
      tracer.BeginRequest(done + 1);
      const uint64_t t0 = NowNs();
      const Outcome outcome = load.RunOne();
      const uint64_t t1 = NowNs();
      tracer.EndRequest(t0, t1);
      latency_ns[done] = static_cast<uint32_t>(std::min<uint64_t>(
          t1 - t0 - tracer.excluded_ns(), std::numeric_limits<uint32_t>::max()));
      measured_failed += outcome == Outcome::kFailed ? 1 : 0;
      now = t1;
    }
    windows.push_back(Window{done - window_first_op, now - window_start, traced});
    measured_cut = now - measured_start > kPhaseCapNs && done < budget;
  }
  tracer.set_window(false);
  latency_ns.resize(done);
  failed += measured_failed;
  const Counters end = Counters::Read(s, load);
  const double bytes_used_mb = static_cast<double>(s.cluster.TotalBytesUsed()) / (1 << 20);

  // 4. Oracles.
  std::vector<Check> checks;
  if (warmup_cut || measured_cut) {
    checks.push_back({"budget", true,
                      std::string(warmup_cut ? "warm-up" : "measured phase") +
                          " cut short by its wall-clock cap"});
  }
  checks.push_back({"no_failed_ops", failed == 0,
                    N(static_cast<int64_t>(failed)) + " failed operations"});
  double closed_item_frac = 0;
  if (!w->sql) {
    auto counts1 = CountRubis(s.db);
    if (!counts1.ok()) {
      checks.push_back({"lost_update", false, counts1.status().ToString()});
    } else {
      const RubisCounts& a = counts0.value();
      const RubisCounts& b = counts1.value();
      const int64_t bids = b.bids - a.bids;
      const int64_t nb = b.nb_of_bids - a.nb_of_bids;
      const auto stored = static_cast<int64_t>(load.store_bids_ok);
      checks.push_back({"lost_update", bids == nb && nb == stored,
                        "bids +" + N(bids) + ", sum(nb_of_bids) +" + N(nb) + ", StoreBid ok " +
                            N(stored)});
      closed_item_frac = Ratio(static_cast<double>(b.old_items - a.old_items),
                               static_cast<double>(s.dataset->scale.active_items));
      checks.push_back({"closed_items", true,
                        N(b.old_items - a.old_items) + " auctions closed (" +
                            Num(closed_item_frac) + " of the active ones)"});
    }
  }
  checks.push_back(w->sql ? AuditSql(s, args.seed) : AuditRubis(s, args.seed));
  if (w->socket) {
    const size_t intents = s.node.ClearIntents();
    const uint64_t failures = s.cluster.Transports()[0]->transport_failures();
    const uint64_t protocol_errors = s.net_server->protocol_errors();
    checks.push_back({"socket", intents == 0 && failures == 0 && protocol_errors == 0,
                      N(static_cast<int64_t>(intents)) + " intents left, " +
                          N(static_cast<int64_t>(failures)) + " transport failures, " +
                          N(static_cast<int64_t>(protocol_errors)) + " protocol errors"});
  }
  const bool correct =
      std::all_of(checks.begin(), checks.end(), [](const Check& c) { return c.ok; });

  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(tracer, load, start, end, windows, latency_ns,
                                closed_item_frac, bytes_used_mb)
                 : EndToEndMetrics(windows, latency_ns, setup_s);
  for (const Check& c : checks) {
    std::printf("%s check %s %s: %s\n", w->name, c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s%s%s\n", w->name, m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  const std::string result = ResultJson(correct, done, measured_failed, metrics);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/e2e_" + w->name + (args.trace ? ".layers" : "");
    std::string file = result;
    file.insert(1, "\"workload\": \"" + std::string(w->name) +
                       "\", \"seed\": " + std::to_string(args.seed) + ", ");
    if (!WriteFile(stem + ".json", file + "\n") ||
        (args.trace &&
         !tracer.WriteChromeTrace(args.out_dir + "/trace_" + w->name + ".json"))) {
      std::fprintf(stderr, "could not write results under %s\n", args.out_dir.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace txcache::e2e

int main(int argc, char** argv) {
  txcache::e2e::Args args;
  if (!txcache::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W [--seed N] [--trace 0|1] [--smoke] [--out-dir D]\n",
                 argv[0]);
    return 2;
  }
  return txcache::e2e::Run(args);
}
