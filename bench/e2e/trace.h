// Spans and per-layer timings for the end-to-end benchmark's traced run (--trace 1).
//
// The traced run wraps the public seams a request crosses in decorators that time each call:
// the CacheTransport a cluster node sits behind (TimedTransport) and the InvalidationSubscriber
// the bus delivers to (TimedSubscriber). The harness brackets each request and each
// maintenance call itself. Only one request in kSampleEvery, chosen by request id, is timed,
// and only while the current measurement window has tracing on: the harness alternates
// traced and untraced windows so one run also measures what tracing costs. Spans stay in
// memory and are written once, in Chrome trace-event format, when the run ends.
//
// Everything here runs on the single load thread, so nothing is synchronized.
#ifndef BENCH_E2E_TRACE_H_
#define BENCH_E2E_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bus/bus.h"
#include "src/cache/cache_server.h"
#include "src/net/transport.h"

namespace txcache::e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

enum class Layer : uint8_t {
  kRequest,     // one whole operation, as the client sees it
  kCoreSelf,    // kRequest minus its RPC and delivery children: app, sql, core, pins, DB
  kRpcLookup,   // CacheTransport::Lookup / MultiLookup
  kRpcInsert,   // CacheTransport::Insert
  kRpcIntent,   // CacheTransport::AcquireIntent / ReleaseIntent
  kDeliver,     // CacheServer::Deliver of one invalidation message
  kSweep,       // Pincushion::Sweep (maintenance, between requests)
  kVacuum,      // Database::Vacuum (maintenance, between requests)
  kSqlExecute,  // SqlSession::Execute of one statement
  // Replay decomposition of a cached SqlSession::Execute (sql_adhoc_hit only).
  kSqlParse,
  kSqlPlan,
  kSqlCopy,
  kSqlKey,
  kSqlLookup,
  kSqlDecode,
  kCount
};

const char* LayerName(Layer layer);

// Nearest-rank quantile of ns samples, in µs (0 when there are none). Reorders `ns`.
double QuantileUs(std::vector<uint32_t>& ns, double q);

class Tracer {
 public:
  static constexpr uint64_t kSampleEvery = 16;
  // Spans kept for the trace file; timings keep accumulating past it.
  static constexpr size_t kMaxSpans = 200'000;

  Tracer() : origin_ns_(NowNs()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Tracing is on only while the harness says the current window is traced.
  void set_window(bool on) { window_on_ = on; }

  // Brackets one request. The harness times the request from the outside and hands both
  // ends to EndRequest, which records the request span and its self time.
  void BeginRequest(uint64_t request_id) {
    request_ = request_id;
    sampled_ = window_on_ && request_id % kSampleEvery == 0;
    children_ns_ = 0;
    excluded_ns_ = 0;
    request_span_ = sampled_ ? ++next_span_id_ : 0;
    parent_ = request_span_;
  }
  void EndRequest(uint64_t start_ns, uint64_t end_ns);
  bool sampled() const { return sampled_ && !suppressed_; }

  // Tracing work done inside a request (the SQL replay) is suppressed from the seams and
  // excluded from the request's own span.
  void set_suppressed(bool on) { suppressed_ = on; }
  void Exclude(uint64_t ns) { excluded_ns_ += ns; }
  uint64_t excluded_ns() const { return excluded_ns_; }

  // RAII timer for one call. Inactive (free apart from the check) unless it belongs to a
  // sampled request, or — for Background(), work between requests — the window is traced.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer, bool active)
        : tracer_(active ? tracer : nullptr), layer_(layer) {
      if (tracer_ != nullptr) {
        id_ = ++tracer_->next_span_id_;
        parent_ = tracer_->parent_;
        tracer_->parent_ = id_;
        start_ns_ = NowNs();
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        const uint64_t end = NowNs();
        tracer_->parent_ = parent_;
        tracer_->Record(layer_, start_ns_, end - start_ns_, id_, parent_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Layer layer_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t start_ns_ = 0;
  };

  Scope Child(Layer layer) { return Scope(this, layer, sampled()); }
  Scope Background(Layer layer) { return Scope(this, layer, window_on_); }

  // Records one timing (and, room permitting, its span). RPC and delivery time counts as a
  // child of the current request for the self-time split.
  void Record(Layer layer, uint64_t start_ns, uint64_t dur_ns, uint64_t id, uint64_t parent);

  std::vector<uint32_t>& samples(Layer layer) { return samples_[static_cast<size_t>(layer)]; }

  // Writes the kept spans as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    Layer layer;
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t request;
    uint64_t id;
    uint64_t parent;
  };

  const uint64_t origin_ns_;
  bool window_on_ = false;
  bool sampled_ = false;
  bool suppressed_ = false;
  uint64_t request_ = 0;
  uint64_t request_span_ = 0;
  uint64_t parent_ = 0;
  uint64_t next_span_id_ = 0;
  uint64_t children_ns_ = 0;
  uint64_t excluded_ns_ = 0;
  std::vector<Span> spans_;
  std::array<std::vector<uint32_t>, static_cast<size_t>(Layer::kCount)> samples_;
};

// CacheTransport decorator: times every data-plane call of a sampled request and counts
// every call, so the harness can split a request's time between the client side and the
// node (or the wire), and report RPCs per operation.
class TimedTransport final : public CacheTransport {
 public:
  TimedTransport(std::shared_ptr<CacheTransport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }

  LookupResponse Lookup(const LookupRequest& req) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcLookup);
    ++calls_;
    return inner_->Lookup(req);
  }
  MultiLookupResponse MultiLookup(const MultiLookupRequest& req) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcLookup);
    ++calls_;
    return inner_->MultiLookup(req);
  }
  void MultiLookup(const MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   MultiLookupResponse* out) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcLookup);
    ++calls_;
    inner_->MultiLookup(req, indices, out);
  }
  Status Insert(const InsertRequest& req,
                std::shared_ptr<const AdvisoryHints>* hints_out) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcInsert);
    ++calls_;
    ++inserts_;
    Status st = inner_->Insert(req, hints_out);
    inserts_accepted_ += st.ok() ? 1 : 0;
    return st;
  }
  IntentResponse AcquireIntent(const IntentRequest& req) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcIntent);
    ++calls_;
    return inner_->AcquireIntent(req);
  }
  IntentResponse ReleaseIntent(const IntentRequest& req) override {
    Tracer::Scope span = tracer_->Child(Layer::kRpcIntent);
    ++calls_;
    return inner_->ReleaseIntent(req);
  }

  CacheServer* local_server() const override { return inner_->local_server(); }
  uint64_t transport_failures() const override { return inner_->transport_failures(); }

  uint64_t calls() const { return calls_; }
  uint64_t inserts() const { return inserts_; }
  uint64_t inserts_accepted() const { return inserts_accepted_; }

 private:
  const std::shared_ptr<CacheTransport> inner_;
  Tracer* const tracer_;
  uint64_t calls_ = 0;
  uint64_t inserts_ = 0;
  uint64_t inserts_accepted_ = 0;
};

// InvalidationSubscriber that forwards to a cache node, timing each delivery of a sampled
// request. The bus delivers synchronously inside the committing request.
class TimedSubscriber final : public InvalidationSubscriber {
 public:
  TimedSubscriber(CacheServer* server, Tracer* tracer) : server_(server), tracer_(tracer) {}

  void Deliver(const InvalidationMessage& msg) override {
    Tracer::Scope span = tracer_->Child(Layer::kDeliver);
    ++messages_;
    server_->Deliver(msg);
  }

  uint64_t messages() const { return messages_; }

 private:
  CacheServer* const server_;
  Tracer* const tracer_;
  uint64_t messages_ = 0;
};

}  // namespace txcache::e2e

#endif  // BENCH_E2E_TRACE_H_
