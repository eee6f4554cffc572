// Online retrieval server (paper Sec. VI-VII.E). The serving path per
// request (user, query):
//   1. look up the user/query embeddings (trained, exported as float rows);
//   2. fetch cached top-k neighbors of both nodes (k = 30, async refresh);
//   3. lightweight edge-level-attention-only aggregation in plain float math
//      (the paper keeps only the edge-level attention online to cut cost);
//   4. ANN search over the item inverted index for the top-N items.
//
// The load generator offers requests at a configurable QPS (open loop) from
// several client threads and records per-request latency, which reproduces
// the response-time-vs-QPS curve of Fig. 9.
#ifndef ZOOMER_SERVING_ONLINE_SERVER_H_
#define ZOOMER_SERVING_ONLINE_SERVER_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "common/threadpool.h"
#include "graph/hetero_graph.h"
#include "serving/ann_index.h"
#include "serving/neighbor_cache.h"

namespace zoomer {

namespace engine {
class DistributedGraphEngine;
}  // namespace engine

namespace maintenance {
class MaintenanceScheduler;
}  // namespace maintenance

namespace serving {

struct OnlineServerOptions {
  int embedding_dim = 16;
  int top_n = 50;           // items retrieved per request
  NeighborCacheOptions cache;
  AnnIndexOptions ann;
  /// Disable edge attention (mean aggregation) — ablation of the serving
  /// reduction described in Sec. VII-E.
  bool use_edge_attention = true;
  /// Bypass the neighbor cache (sample on the request path) — quantifies
  /// the cache benefit.
  bool use_neighbor_cache = true;
  uint64_t seed = 23;
  /// Metrics registry for serving instruments ("serving." names). Null
  /// means the process-global registry; propagated to cache/ann options
  /// that did not set their own.
  obs::MetricsRegistry* registry = nullptr;
};

struct ServingRequest {
  graph::NodeId user = -1;
  graph::NodeId query = -1;
};

/// Read-your-writes session state: tracks the delta-log epoch of the
/// session's own last write. Pass it to Handle(req, token) so neighbor
/// reads route only to engine replicas whose apply watermark covers the
/// session's writes — a lagging replica can never serve this session a
/// view that misses its own just-ingested edge. Feed it from the ingest
/// pipeline's update listener (or OfferNewNode's epoch).
struct SessionToken {
  uint64_t last_write_epoch = 0;
  /// Records a write the session observed (monotone).
  void Observe(uint64_t epoch) {
    if (epoch > last_write_epoch) last_write_epoch = epoch;
  }
};

struct ServingResponse {
  std::vector<AnnResult> items;
  double latency_ms = 0.0;
};

class OnlineServer {
 public:
  /// node_embeddings: one float row per graph node (trained export);
  /// item_ids/item_embeddings build the ANN index.
  OnlineServer(const graph::HeteroGraph* g, OnlineServerOptions options,
               std::vector<float> node_embeddings,
               const std::vector<graph::NodeId>& item_ids,
               const std::vector<float>& item_embeddings);

  /// Synchronous request handling (measures its own latency).
  ServingResponse Handle(const ServingRequest& req);

  /// Session-pinned handling: when an engine is attached (AttachEngine) and
  /// the token has observed a write, ego-node neighbor reads go through the
  /// engine with SampleRequest::min_epoch = the token's last write epoch —
  /// the freshness-aware router then only uses replicas whose watermark
  /// covers the session's writes (cached entries may predate them).
  ServingResponse Handle(const ServingRequest& req,
                         const SessionToken& token);

  /// Routes session-pinned neighbor reads (Handle with a SessionToken)
  /// through the replica-group engine's freshness-aware router. The engine
  /// must outlive this server.
  void AttachEngine(engine::DistributedGraphEngine* engine);

  /// Pre-fills the neighbor cache for the given nodes.
  void WarmCache(const std::vector<graph::NodeId>& nodes);

  /// Routes neighbor reads through the streaming delta overlay so responses
  /// reflect freshly ingested edges. The view must outlive the server.
  void AttachDynamicGraph(const streaming::DynamicHeteroGraph* dynamic);

  /// Registers the embedding row of a node born after construction (id >=
  /// the offline graph's num_nodes(), e.g. a streamed cold-start item) so
  /// aggregation can score it as a cached neighbor. When `is_item`, the
  /// embedding is also inserted into the ANN index incrementally — a
  /// subsequent Handle() can then retrieve the brand-new item without an
  /// offline rebuild. Thread-safe against concurrent Handle().
  Status IngestNode(graph::NodeId id, std::vector<float> embedding,
                    bool is_item);

  /// Ingest-pipeline update hook: invalidates the touched nodes' cache
  /// entries (each schedules an asynchronous re-fill). Register as
  ///   pipeline.AddUpdateListener([&](uint64_t epoch, const auto& nodes) {
  ///     server.OnGraphUpdate(epoch, nodes); });
  void OnGraphUpdate(const std::vector<graph::NodeId>& nodes);

  /// Epoch-carrying overload matching IngestPipeline::UpdateListener; the
  /// epoch is also remembered as last_update_epoch() so callers can stamp
  /// session tokens without threading the listener themselves.
  void OnGraphUpdate(uint64_t epoch, const std::vector<graph::NodeId>& nodes);

  /// Delta-log epoch of the newest update observed via OnGraphUpdate.
  uint64_t last_update_epoch() const {
    return last_update_epoch_.load(std::memory_order_acquire);
  }

  /// Subscribes this server to the background maintenance scheduler: any
  /// policy pass that reports touched nodes (MaintenanceReport::touched)
  /// invalidates those nodes' neighbor-cache entries so the asynchronous
  /// re-fill serves their new neighborhoods.
  /// Compactions need no invalidation — the fold preserves every merged
  /// neighbor distribution. Must be called before scheduler->Start(); the
  /// scheduler must not outlive this server.
  void AttachMaintenance(maintenance::MaintenanceScheduler* scheduler);

  /// Scrape endpoint: one flat JSON object over the server's metrics
  /// registry — per-shard freshness lag, fold-pause histograms, cache hit
  /// ratio, serving latency percentiles, and everything else registered
  /// with it. Derived gauges (cache hit ratio, entry count) refresh on
  /// every call.
  std::string DumpMetrics() const;

  const NeighborCache& cache() const { return *cache_; }
  /// Mutable access for tests and warm-up tooling (Get records hit/miss
  /// stats and schedules fills, so it is not const).
  NeighborCache& cache() { return *cache_; }
  const AnnIndex& index() const { return index_; }

 private:
  /// Edge-attention-only user-query embedding in plain float math. A
  /// non-zero `min_epoch` (with an attached engine) fetches ego neighbors
  /// through the engine's freshness-aware router instead of the cache.
  void EmbedRequest(const ServingRequest& req, uint64_t min_epoch,
                    std::vector<float>* out);

  /// Embedding row of `id`, spanning the offline export and streamed
  /// overlay nodes; nullptr for ids with no registered embedding. The
  /// pointer stays valid for the server's lifetime (rows are never erased
  /// and map rehashes do not move a vector's heap buffer).
  const float* NodeEmbedding(graph::NodeId id) const;

  /// Refreshes scrape-time derived gauges (hit ratio, cache entries).
  void RefreshDerivedGauges() const;

  const graph::HeteroGraph* graph_;
  OnlineServerOptions options_;
  engine::DistributedGraphEngine* engine_ = nullptr;  // AttachEngine
  std::atomic<uint64_t> last_update_epoch_{0};
  obs::MetricsRegistry* registry_;          // resolved (never null)
  obs::Counter* requests_;                  // serving.requests
  obs::Counter* ryw_requests_;              // serving.read_your_writes_requests
  obs::Counter* node_ingests_;              // serving.node_ingest
  obs::Histogram* request_latency_us_;      // serving.request_latency_us
  obs::Histogram* embed_latency_us_;        // serving.embed_latency_us
  obs::Gauge* cache_hit_ratio_;             // serving.neighbor_cache.hit_ratio
  obs::Gauge* cache_entries_;               // serving.neighbor_cache.entries
  std::vector<float> node_emb_;  // num_nodes x dim (offline export)
  /// Streamed nodes' embedding rows, keyed by overlay id.
  mutable std::shared_mutex overlay_emb_mu_;
  std::unordered_map<graph::NodeId, std::vector<float>> overlay_emb_;
  std::unique_ptr<NeighborCache> cache_;
  AnnIndex index_;
};

/// Open-loop load generator: offers `qps` requests per second for
/// `duration_seconds` from `client_threads` threads against the server and
/// collects latency statistics.
struct LoadResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t requests = 0;
};

/// server_threads: size of the server-side worker pool requests queue into
/// (a real deployment has a fixed handler pool; queueing delay above
/// capacity is what bends the Fig. 9 curve).
LoadResult RunLoad(OnlineServer* server,
                   const std::vector<ServingRequest>& request_pool,
                   double qps, double duration_seconds, int client_threads,
                   uint64_t seed, int server_threads = 4);

}  // namespace serving
}  // namespace zoomer

#endif  // ZOOMER_SERVING_ONLINE_SERVER_H_
