// Spans recorded by bench_nova around each call it makes into a layer's
// public API. Each client thread owns one SpanLog, so recording takes no
// lock; logs are merged once the traced window ends. Every span's
// duration is kept (for means and percentiles), and the full spans of one
// request in kRawEvery are kept for the raw dump.
#ifndef NOVA_BENCH_NOVA_TRACE_H_
#define NOVA_BENCH_NOVA_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace nova_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names, one per layer boundary the traced pass crosses. kClient is
/// the whole request and the parent of every other span; kClientSelf is
/// derived: the client span minus the time its children cover.
enum SpanName {
  kClient,
  kCoordConfig,  // coord::Coordinator::config
  kCoordRoute,   // coord::Configuration::LtcForKey
  kLtcRoute,     // ltc::LtcServer::RouteKey
  kRangeGet,     // ltc::RangeEngine::Get
  kRangePut,     // ltc::RangeEngine::Put
  kRangeScan,    // ltc::RangeEngine::Scan
  kClientSelf,
  kNumSpanNames
};

inline const char* SpanNameString(int name) {
  static const char* const kNames[kNumSpanNames] = {
      "client",    "coord.config", "coord.route", "ltc.route",
      "ltc.range_get", "ltc.range_put", "ltc.range_scan", "client.self"};
  return kNames[name];
}

struct RawSpan {
  uint64_t request;
  int name;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  static constexpr uint64_t kRawEvery = 64;

  void Record(uint64_t request, SpanName name, int64_t start_ns,
              int64_t end_ns) {
    durations_ns_[name].push_back(end_ns - start_ns);
    if (request % kRawEvery == 0) {
      raw_.push_back(RawSpan{request, name, start_ns, end_ns});
    }
  }

  /// A derived duration with no span of its own (kClientSelf).
  void AddDuration(SpanName name, int64_t ns) {
    durations_ns_[name].push_back(ns);
  }

  void Merge(const SpanLog& other) {
    for (int n = 0; n < kNumSpanNames; n++) {
      durations_ns_[n].insert(durations_ns_[n].end(),
                              other.durations_ns_[n].begin(),
                              other.durations_ns_[n].end());
    }
    raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.end());
  }

  std::vector<int64_t>& durations_ns(int name) { return durations_ns_[name]; }
  const std::vector<RawSpan>& raw() const { return raw_; }

 private:
  std::vector<int64_t> durations_ns_[kNumSpanNames];
  std::vector<RawSpan> raw_;
};

/// Latency samples summarised in microseconds. Percentile sorts in place.
struct Summary {
  uint64_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

inline double PercentileUs(const std::vector<int64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_ns.size() - 1) + 0.5);
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

inline Summary Summarize(std::vector<int64_t>* ns) {
  Summary s;
  if (ns->empty()) {
    return s;
  }
  std::sort(ns->begin(), ns->end());
  double total = 0;
  for (int64_t v : *ns) {
    total += static_cast<double>(v);
  }
  s.count = ns->size();
  s.mean_us = total / static_cast<double>(ns->size()) / 1000.0;
  s.p50_us = PercentileUs(*ns, 0.50);
  s.p99_us = PercentileUs(*ns, 0.99);
  s.p999_us = PercentileUs(*ns, 0.999);
  return s;
}

}  // namespace nova_bench

#endif  // NOVA_BENCH_NOVA_TRACE_H_
