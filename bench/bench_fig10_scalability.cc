// Reproduces Fig. 10: training time to reach AUC 0.6 as the graph scale
// grows, Zoomer vs GCE-GNN (paper protocol: sampling number 5, 2-layer
// multi-level attention) — plus the distributed-serving side of the same
// scalability story: a replica-group engine under live ingest with one
// replica killed mid-stream. Reports
//   1. the Fig. 10 training-cost table (smoke runs only the smallest
//      scale),
//   2. serving latency through the replica groups while healthy, degraded
//      (one replica dead: no request may route to it after detection, the
//      error rate stays zero), and after ReviveReplica — whose delta-log
//      replay must drain the watermark lag back to 0.
//
// Flags: --smoke shrinks every workload for a CI smoke run; --json PATH
// writes the headline metrics as a flat JSON object (plus the engine's
// metrics registry flattened under "obs." keys) so the workflow archives a
// BENCH_*.json artifact per commit.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/session_stream.h"
#include "engine/distributed_graph_engine.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace bench {
namespace {

using graph::NodeId;

struct BenchConfig {
  bool smoke = false;     // tiny iteration counts for the CI smoke run
  std::string json_path;  // "" = no JSON artifact
};

/// Flat (name, value) metric sink serialized as one JSON object; names use
/// unit suffixes so the artifact is self-describing.
class MetricSink {
 public:
  void Record(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  bool WriteJson(const std::string& path, bool smoke) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"fig10_scalability\",\n");
    std::fprintf(f, "  \"smoke\": %s", smoke ? "true" : "false");
    for (const auto& [name, value] : metrics_) {
      std::fprintf(f, ",\n  \"%s\": %.6g", name.c_str(), value);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

const char* ScaleKey(GraphScale s) {
  switch (s) {
    case GraphScale::kMillion: return "million";
    case GraphScale::kHundredMillion: return "hundred_million";
    case GraphScale::kBillion: return "billion";
  }
  return "unknown";
}

std::string FormatAuc(double auc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.3f", auc);
  return buf;
}

std::vector<NodeId> QueriesWithEdges(const graph::HeteroGraph& g,
                                     size_t limit) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes() && out.size() < limit; ++v) {
    if (g.node_type(v) == graph::NodeType::kQuery && g.degree(v) > 0) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

int Run(const BenchConfig& cfg) {
  std::printf("=== Fig. 10: scalability%s ===\n", cfg.smoke ? " (smoke)" : "");
  MetricSink sink;

  // ---- 1. Training time to AUC = 0.6 vs graph scale -----------------------
  std::printf("\ntraining time to AUC=0.6 vs graph scale\n");
  std::printf("\n%-24s %12s %12s\n", "Graph scale", "Zoomer(s)", "GCE-GNN(s)");
  PrintRule(52);
  std::vector<std::string> misses;  // runs that hit the epoch cap
  std::vector<GraphScale> scales = {GraphScale::kMillion};
  if (!cfg.smoke) {
    scales.push_back(GraphScale::kHundredMillion);
    scales.push_back(GraphScale::kBillion);
  }
  for (auto scale : scales) {
    auto ds = data::GenerateTaobaoDataset(ScaleOptions(scale, 2022));
    std::printf("%-24s", ScaleName(scale));
    for (const char* name : {"Zoomer", "GCE-GNN"}) {
      baselines::ModelParams params;
      params.hidden_dim = 16;
      params.sample_k = 5;  // paper: sampling number 5
      params.num_hops = 2;
      params.seed = 5;
      auto model = baselines::MakeModel(name, &ds.graph, params);
      core::TrainOptions topt;
      topt.learning_rate = 0.01f;
      topt.batch_size = 128;
      topt.max_examples_per_epoch = cfg.smoke ? 500 : 2000;
      core::ZoomerTrainer trainer(model.get(), topt);
      const core::TimeToAucResult run = trainer.TrainUntilAuc(
          ds, /*target_auc=*/0.6, /*max_epochs=*/cfg.smoke ? 3 : 8);
      // '*' marks a run that hit the epoch cap (listed below the table).
      std::printf(" %11.1f%s", run.seconds, run.reached ? " " : "*");
      std::fflush(stdout);
      const std::string key = std::string(name[0] == 'Z' ? "zoomer_"
                                                         : "gcegnn_") +
                              ScaleKey(scale);
      sink.Record("train_to_auc06_s_" + key, run.seconds);
      sink.Record("train_to_auc06_reached_" + key, run.reached ? 1.0 : 0.0);
      sink.Record("train_to_auc06_best_auc_" + key, run.best_auc);
      if (!run.reached) {
        misses.push_back(std::string(name) + " @ " + ScaleName(scale) +
                         ": not reached in " + std::to_string(run.epochs) +
                         " epochs (best " + FormatAuc(run.best_auc) + ")");
      }
    }
    std::printf("\n");
  }
  for (const std::string& miss : misses) {
    std::printf("* %s\n", miss.c_str());
  }
  std::printf("\n(paper Fig. 10: cost grows with scale for both systems;\n"
              " Zoomer reaches the target faster at every scale, especially\n"
              " on the largest graph)\n");

  // ---- 2. Replica-group serving under failure -----------------------------
  // The serving half of scalability: shards replicated, live ingest fanned
  // out to every replica, one replica killed mid-stream. Acceptance: the
  // degraded phase routes zero requests to the dead replica after detection
  // (error rate stays 0), and after ReviveReplica the delta-log replay
  // drains the watermark lag back to 0.
  {
    auto ds = data::GenerateTaobaoDataset(
        ScaleOptions(GraphScale::kMillion, 2023));
    obs::MetricsRegistry reg;
    const int kShards = 2;
    const int kRf = 2;
    streaming::GraphDeltaLog log(kShards);
    streaming::DynamicHeteroGraph primary(&ds.graph);
    engine::EngineOptions eopt;
    eopt.num_shards = kShards;
    eopt.replication_factor = kRf;
    eopt.simulated_rpc_micros = cfg.smoke ? 0 : 50;
    eopt.registry = &reg;
    engine::DistributedGraphEngine eng(&ds.graph, eopt);
    eng.ConnectUpdateFanout(&log, &primary);

    streaming::IngestOptions iopt;
    iopt.num_shards = kShards;
    iopt.batch_size = 32;
    iopt.registry = &reg;
    streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
    pipe.Start();

    data::LiveSessionOptions lopt;
    lopt.num_sessions = cfg.smoke ? 2000 : 20000;
    lopt.seed = 77;
    auto live = data::SynthesizeLiveSessions(ds, lopt);
    std::atomic<bool> feed_done{false};
    std::thread feeder([&] {
      size_t i = 0;
      while (!feed_done.load(std::memory_order_acquire)) {
        pipe.Offer(live[i % live.size()]);
        ++i;
        if (i % 64 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });

    auto queries = QueriesWithEdges(ds.graph, 400);
    auto run_phase = [&](int n, uint64_t seed, obs::Histogram* lat_us,
                         int64_t* errors) {
      Rng prng(seed);
      for (int i = 0; i < n; ++i) {
        engine::SampleRequest req;
        req.node = queries[prng.Uniform(queries.size())];
        req.k = 10;
        req.rng_seed = seed ^ static_cast<uint64_t>(i);
        WallTimer timer;
        auto resp = eng.Sample(req);
        if (resp.ok()) {
          lat_us->Record(static_cast<int64_t>(timer.ElapsedMicros()));
        } else {
          ++*errors;
        }
      }
    };
    const int kPhaseRequests = cfg.smoke ? 400 : 4000;

    obs::Histogram healthy_us;
    int64_t healthy_errors = 0;
    run_phase(kPhaseRequests, 101, &healthy_us, &healthy_errors);

    // Kill shard0.r1 mid-ingest. requests_per_replica is replica-major
    // (index = shard * rf + r), so the dead replica is slot 1.
    const int kDeadSlot = 0 * kRf + 1;
    eng.KillReplica(0, 1);
    const int64_t dead_requests_at_kill =
        eng.Stats().requests_per_replica[kDeadSlot];
    obs::Histogram degraded_us;
    int64_t degraded_errors = 0;
    run_phase(kPhaseRequests, 202, &degraded_us, &degraded_errors);
    auto stats = eng.Stats();
    const int64_t dead_routed =
        stats.requests_per_replica[kDeadSlot] - dead_requests_at_kill;

    // Revive: the applier replays the delta log from the replica's pinned
    // consumer cursor until it reaches the primary watermark.
    WallTimer revive_timer;
    eng.ReviveReplica(0, 1);
    const bool caught_up = eng.AwaitReplicaCatchUp(0, 1, 30'000'000);
    const double revive_ms = revive_timer.ElapsedMillis();

    feed_done.store(true, std::memory_order_release);
    feeder.join();
    pipe.Flush();
    uint64_t max_lag = 0;
    for (int s = 0; s < kShards; ++s) {
      for (int r = 0; r < kRf; ++r) {
        eng.AwaitReplicaCatchUp(s, r, 30'000'000);
      }
    }
    stats = eng.Stats();
    for (const auto& rs : stats.replicas) {
      const uint64_t lag = stats.primary_watermark - rs.watermark;
      if (lag > max_lag) max_lag = lag;
    }

    const obs::HistogramSnapshot healthy = healthy_us.Snapshot();
    const obs::HistogramSnapshot degraded = degraded_us.Snapshot();
    auto ms = [](const obs::HistogramSnapshot& h, double p) {
      return h.Percentile(p) / 1e3;
    };
    std::printf("\n[replica groups] %d shards x %d replicas, live ingest, "
                "kill shard0.r1 mid-stream (%d requests/phase)\n",
                kShards, kRf, kPhaseRequests);
    std::printf("  %-28s p50 %7.3f ms  p99 %7.3f ms  errors %lld\n",
                "healthy", ms(healthy, 50), ms(healthy, 99),
                static_cast<long long>(healthy_errors));
    std::printf("  %-28s p50 %7.3f ms  p99 %7.3f ms  errors %lld  %s\n",
                "degraded (1 replica dead)", ms(degraded, 50),
                ms(degraded, 99),
                static_cast<long long>(degraded_errors),
                degraded_errors == 0 ? "(0 errors OK)" : "(errors!)");
    std::printf("  requests routed to dead replica after detection: %lld%s\n",
                static_cast<long long>(dead_routed),
                dead_routed == 0 ? "  (none OK)" : "  (leak!)");
    std::printf("  revive: caught up %s in %.1f ms (replayed to watermark "
                "%llu); final max replica lag %llu%s\n",
                caught_up ? "true" : "FALSE", revive_ms,
                static_cast<unsigned long long>(stats.primary_watermark),
                static_cast<unsigned long long>(max_lag),
                max_lag == 0 ? "  (lag 0 OK)" : "  (lag!)");
    std::printf("  stale-fallback reads %lld, killed-inflight failures %lld, "
                "dead replicas now %lld\n",
                static_cast<long long>(stats.stale_fallback_reads),
                static_cast<long long>(stats.killed_inflight_failures),
                static_cast<long long>(stats.dead_replicas));

    sink.Record("serving_healthy_p50_ms", ms(healthy, 50));
    sink.Record("serving_healthy_p99_ms", ms(healthy, 99));
    sink.Record("serving_degraded_p50_ms", ms(degraded, 50));
    sink.Record("serving_degraded_p99_ms", ms(degraded, 99));
    sink.Record("serving_degraded_errors",
                static_cast<double>(degraded_errors));
    sink.Record("dead_replica_requests_after_detection",
                static_cast<double>(dead_routed));
    sink.Record("revive_catchup_ms", revive_ms);
    sink.Record("replica_lag_after_revive", static_cast<double>(max_lag));

    pipe.Stop();
    // The engine's registry flattened into the artifact: per-replica
    // watermark-lag and queue-depth gauges plus their aggregates land under
    // "obs.engine." keys, so the CI trajectory carries replica health per
    // commit.
    obs::MetricsExporter::Flatten(
        reg.Snapshot(), [&sink](const std::string& key, double value) {
          sink.Record("obs." + key, value);
        });
  }

  if (!cfg.json_path.empty()) {
    if (!sink.WriteJson(cfg.json_path, cfg.smoke)) {
      std::printf("failed to write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::printf("\nmetrics written to %s\n", cfg.json_path.c_str());
  }
  return 0;
}

}  // namespace bench
}  // namespace zoomer

int main(int argc, char** argv) {
  zoomer::bench::BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return zoomer::bench::Run(cfg);
}
