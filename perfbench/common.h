// Shared plumbing of the benchmark binary: command line, result sink,
// steady clock, registry windows, benchmark-side spans and the contract's
// final JSON line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/taobao_generator.h"
#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  // scratch space inside the checkout
};

/// The contract metrics, in BENCHMARK.json order. Every workload reports
/// every one of them; a per-layer metric of a layer the workload leaves
/// idle reads 0.
struct MetricName {
  const char* name;
  const char* unit;
};
inline constexpr MetricName kE2eMetrics[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
    {"latency_ms", "ms"},       {"throughput_per_s", "1/s"},
    {"quality", "ratio"},
};
inline constexpr MetricName kLayerMetrics[] = {
    {"serving.handle_us.p50", "us"},
    {"serving.handle_us.p99", "us"},
    {"serving.dispatch_wait_us.p50", "us"},
    {"serving.dispatch_wait_us.p99", "us"},
    {"serving.embed_us.p50", "us"},
    {"serving.embed_us.p99", "us"},
    {"serving.ann_search_us.p50", "us"},
    {"serving.ann_search_us.p99", "us"},
    {"serving.cache_hit_ratio", "ratio"},
    {"serving.cache_fills", "count"},
    {"serving.cache_fill_us.p99", "us"},
    {"engine.request_us.p50", "us"},
    {"engine.request_us.p99", "us"},
    {"engine.sample_us.p99", "us"},
    {"engine.ryw_requests", "count"},
    {"engine.stale_fallback_reads", "count"},
    {"engine.queue_depth.max", "count"},
    {"streaming.offer_us.p99", "us"},
    {"streaming.batch_apply_us.p50", "us"},
    {"streaming.batch_apply_us.p99", "us"},
    {"streaming.events_applied", "count"},
    {"streaming.events_dropped", "count"},
    {"streaming.batches", "count"},
    {"ingest.visible_p50_ms", "ms"},
    {"ingest.visible_p99_ms", "ms"},
    {"maintenance.fold_pause_us.p99", "us"},
    {"maintenance.folds", "count"},
    {"maintenance.fold_segments.p50", "count"},
    {"maintenance.hot_cache_hit_ratio", "ratio"},
    {"persist.wal_fsync_us.p99", "us"},
    {"persist.wal_bytes", "bytes"},
    {"persist.checkpoint_us.p99", "us"},
    {"persist.checkpoint_bytes", "bytes"},
    {"persist.segments_reused_ratio", "ratio"},
    {"core.roi_sample_us.p50", "us"},
    {"core.roi_sample_us.p99", "us"},
    {"core.forward_us.p50", "us"},
    {"core.forward_us.p99", "us"},
    {"core.forward_self_us.p50", "us"},
    {"tensor.backward_us.p50", "us"},
    {"tensor.backward_us.p99", "us"},
    {"tensor.step_us.p50", "us"},
    {"setup.generate_s", "s"},
    {"setup.index_build_s", "s"},
    {"setup.cache_warm_s", "s"},
    {"latency_p99_ms", "ms"},
    {"gen.lateness_us.p50", "us"},
    {"gen.lateness_us.p99", "us"},
    {"trace.overhead_frac", "ratio"},
};

/// The hundred-million-scale stand-in graph (800 users, 800 queries, 1600
/// items, 6000 sessions) in the information-overload regime the repo's
/// reproduction benches use, generated from the workload seed.
inline zoomer::data::TaobaoGeneratorOptions HundredMillionScale(
    uint64_t seed) {
  zoomer::data::TaobaoGeneratorOptions opt;
  opt.seed = seed;
  opt.p_click_in_category = 0.7;
  opt.p_interest_drift = 0.25;
  opt.max_user_interests = 5;
  opt.hard_negative_fraction = 0.25;
  opt.taste_tournament = 4;
  opt.num_users = 800;
  opt.num_queries = 800;
  opt.num_items = 1600;
  opt.num_sessions = 6000;
  opt.num_categories = 16;
  return opt;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady clock for RunOpenLoop.
struct RealClock {
  int64_t Now() const { return NowNs(); }
  void SleepUntil(int64_t ns) const {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns)));
  }
  void Relax() const {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
};

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Everything one workload run reports: the contract metrics (end-to-end
/// and per-layer), the workload's own metric names, the output checks and
/// the attempted/failed counts.
class Result {
 public:
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// The workload's own name for a metric (e.g. serve.p99_ms), printed in
  /// the human report beside the contract names.
  void Named(const std::string& name, double value, const std::string& unit) {
    named_[name] = {value, unit};
  }
  /// Records an output check; a failed one makes the run exit non-zero.
  void Check(const std::string& what, bool ok) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
  }
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }

  /// Prints every metric by name and unit, then the contract line:
  /// e2e metrics untraced, per-layer metrics traced.
  void Print(bool trace) {
    for (const MetricName& m : kE2eMetrics) {
      if (e2e_.count(m.name) == 0) {
        Check(std::string("workload reports ") + m.name, false);
      }
    }
    std::printf("\nworkload metrics:\n");
    for (const auto& [name, v] : named_) {
      std::printf("  %-34s %16.6f %s\n", name.c_str(), v.first,
                  v.second.c_str());
    }
    std::printf("end-to-end metrics:\n");
    for (const auto& [name, v] : e2e_) {
      std::printf("  %-34s %16.6f %s\n", name.c_str(), v.first,
                  v.second.c_str());
    }
    if (trace) {
      std::printf("per-layer metrics:\n");
      for (const auto& [name, v] : layer_) {
        std::printf("  %-34s %16.6f %s\n", name.c_str(), v.first,
                    v.second.c_str());
      }
    }
    std::map<std::string, std::pair<double, std::string>> chosen;
    if (trace) {
      for (const MetricName& m : kLayerMetrics) {
        auto it = layer_.find(m.name);
        chosen[m.name] = {it == layer_.end() ? 0.0 : it->second.first,
                          m.unit};
      }
    } else {
      for (const MetricName& m : kE2eMetrics) {
        auto it = e2e_.find(m.name);
        chosen[m.name] = {it == e2e_.end() ? 0.0 : it->second.first, m.unit};
      }
    }
    std::string line = "{\"correct\": ";
    line += correct_ ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, v] : chosen) {
      std::snprintf(buf, sizeof(buf), "%.17g", v.first);
      line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + v.second + "\"}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> e2e_;
  std::map<std::string, std::pair<double, std::string>> layer_;
  std::map<std::string, std::pair<double, std::string>> named_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Registry deltas over a measured window: snapshot at Begin and End and
/// difference counters and histogram buckets, so warm-up and set-up never
/// leak into the per-layer numbers.
class RegistryWindow {
 public:
  void Begin() { begin_ = Registry()->Snapshot(); }
  void End() { end_ = Registry()->Snapshot(); }

  double CounterDelta(const std::string& name) const {
    return Value(end_, name) - Value(begin_, name);
  }
  /// Number of histogram records in the window.
  double HistCount(const std::string& name) const {
    const auto d = Buckets(name);
    double n = 0;
    for (int64_t c : d) n += static_cast<double>(c);
    return n;
  }
  /// Sum of the values recorded in the window.
  double HistSum(const std::string& name) const {
    return static_cast<double>(HistField(end_, name, true) -
                               HistField(begin_, name, true));
  }
  /// Bucket-midpoint percentile of the window's records (0 when empty).
  double HistPercentile(const std::string& name, double p) const {
    const auto d = Buckets(name);
    int64_t n = 0;
    for (int64_t c : d) n += c;
    if (n == 0) return 0.0;
    const int64_t rank = PercentileRank(n, p);
    int64_t seen = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      seen += d[i];
      if (seen >= rank) {
        return static_cast<double>(
            zoomer::obs::Histogram::BucketMidpoint(static_cast<int>(i)));
      }
    }
    return 0.0;
  }

  static zoomer::obs::MetricsRegistry* Registry() {
    return zoomer::obs::MetricsRegistry::Global();
  }

 private:
  static double Value(const zoomer::obs::RegistrySnapshot& s,
                      const std::string& name) {
    const auto* p = s.Find(name);
    return p == nullptr ? 0.0 : p->value;
  }
  static int64_t HistField(const zoomer::obs::RegistrySnapshot& s,
                           const std::string& name, bool sum) {
    const auto* p = s.Find(name);
    if (p == nullptr) return 0;
    return sum ? p->hist.sum() : p->hist.count();
  }
  std::vector<int64_t> Buckets(const std::string& name) const {
    std::vector<int64_t> d(zoomer::obs::Histogram::kNumBuckets, 0);
    const auto* e = end_.Find(name);
    const auto* b = begin_.Find(name);
    if (e != nullptr) {
      const auto& c = e->hist.bucket_counts();
      for (size_t i = 0; i < c.size() && i < d.size(); ++i) d[i] += c[i];
    }
    if (b != nullptr) {
      const auto& c = b->hist.bucket_counts();
      for (size_t i = 0; i < c.size() && i < d.size(); ++i) d[i] -= c[i];
    }
    return d;
  }

  zoomer::obs::RegistrySnapshot begin_;
  zoomer::obs::RegistrySnapshot end_;
};

/// Spans the benchmark records around calls into the library's public
/// functions. Each thread appends to its own buffer (no lock on the record
/// path); buffers are merged when the benchmark ends.
enum SpanName : uint8_t {
  kSpanDispatch,   // request due -> handler start
  kSpanHandle,     // OnlineServer::Handle
  kSpanOffer,      // IngestPipeline::Offer
  kSpanForward,    // ScoringModel::ScoreLogit + loss
  kSpanBackward,   // Tensor::Backward
  kSpanStep,       // Adam::Step + ZeroGrad
  kSpanRoiInForward,  // ROI-sampling time inside one forward (derived)
  kNumSpanNames,
};

struct Span {
  int64_t request = 0;  // request / example id shared by its spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = kSpanHandle;
};

class SpanLog {
 public:
  void Record(SpanName name, int64_t request, int64_t start_ns,
              int64_t end_ns) {
    Buffer()->push_back({request, start_ns, end_ns, name});
  }
  /// Durations (µs, ascending) of every span with `name`.
  std::vector<double> DurationsUs(SpanName name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& buf : buffers_) {
      for (const Span& s : *buf) {
        if (s.name == name) {
          out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  /// Spans of every thread, for per-request joins.
  std::vector<Span> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& buf : buffers_) out.insert(out.end(), buf->begin(),
                                                buf->end());
    return out;
  }

 private:
  std::vector<Span>* Buffer() {
    // Keyed by a process-unique id, not the address: a later SpanLog may
    // reuse this one's address after the buffers are gone.
    thread_local std::vector<Span>* mine = nullptr;
    thread_local uint64_t owner = 0;
    if (owner != id_) {
      auto buf = std::make_unique<std::vector<Span>>();
      buf->reserve(1 << 16);
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(buf));
      mine = buffers_.back().get();
      owner = id_;
    }
    return mine;
  }
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }
  const uint64_t id_ = NextId();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Runs `setup` `reps` times (each result replacing the previous one) and
/// returns the median wall seconds. `setup` returns the built state.
template <typename Fn>
auto RepeatSetup(int reps, std::vector<double>* seconds, Fn&& setup) {
  decltype(setup()) kept{};
  for (int i = 0; i < reps; ++i) {
    kept = {};  // tear the previous instance down before timing the next
    const int64_t t0 = NowNs();
    kept = setup();
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return kept;
}

/// Prints the spread of the set-up repetitions.
inline void PrintSetup(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  std::printf("set-up: %zu repetitions, min %.4f s, median %.4f s, "
              "max %.4f s\n",
              seconds.size(), seconds.front(), Median(seconds),
              seconds.back());
}

/// Prints a timing by the reporting rule: median plus the highest
/// percentile with at least 10 samples beyond it, with the sample count.
inline void PrintTiming(const char* name, std::vector<double> values,
                        const char* unit) {
  std::sort(values.begin(), values.end());
  const Tail tail = HighestTail(values);
  std::printf("  %-30s p50 %10.4f %s   p%-5g %10.4f %s   (n=%lld)\n", name,
              Percentile(values, 50), unit, tail.percentile, tail.value, unit,
              static_cast<long long>(tail.count));
}

int RunServe(const Args& args, bool ingest, Result* result);
int RunTrain(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
