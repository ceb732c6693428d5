#include "bench/e2e/trace.h"

#include <limits>

namespace txcache::e2e {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {
      "request",     "core.self", "net.lookup", "net.insert",  "net.intent",
      "bus.deliver", "pincushion.sweep", "db.vacuum", "sql.execute", "sql.parse",
      "sql.plan",    "sql.copy",  "sql.key",    "sql.lookup", "sql.decode",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<size_t>(layer)];
}

double QuantileUs(std::vector<uint32_t>& ns, double q) {
  if (ns.empty()) {
    return 0.0;
  }
  const size_t rank = std::min(ns.size() - 1, static_cast<size_t>(q * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank), ns.end());
  return static_cast<double>(ns[rank]) / 1000.0;
}

void Tracer::Record(Layer layer, uint64_t start_ns, uint64_t dur_ns, uint64_t id,
                    uint64_t parent) {
  samples(layer).push_back(static_cast<uint32_t>(
      std::min<uint64_t>(dur_ns, std::numeric_limits<uint32_t>::max())));
  if (layer == Layer::kRpcLookup || layer == Layer::kRpcInsert || layer == Layer::kRpcIntent ||
      layer == Layer::kDeliver) {
    children_ns_ += dur_ns;
  }
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(Span{layer, start_ns, dur_ns, request_, id, parent});
  }
}

void Tracer::EndRequest(uint64_t start_ns, uint64_t end_ns) {
  if (sampled_) {
    const uint64_t elapsed = end_ns - start_ns;
    const uint64_t dur = elapsed - std::min(excluded_ns_, elapsed);
    Record(Layer::kRequest, start_ns, dur, request_span_, 0);
    samples(Layer::kCoreSelf)
        .push_back(static_cast<uint32_t>(dur > children_ns_ ? dur - children_ns_ : 0));
  }
  sampled_ = false;
  request_ = 0;
  request_span_ = 0;
  parent_ = 0;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<double>(s.start_ns - origin_ns_) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace txcache::e2e
