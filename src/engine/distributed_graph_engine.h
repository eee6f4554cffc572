// Distributed graph engine (paper Sec. VI, "Distributed graph engine" built
// on Euler): the graph is hash-partitioned into shards for storage capacity,
// and each shard is a *replica group* — every replica owns an independent
// DynamicHeteroGraph over the shared immutable base (it shares the base's
// segments, no row copies) plus its own apply cursor into the shared
// GraphDeltaLog. The ingest pipeline applies a batch to the primary graph,
// then publishes its epoch to the owning shard's fanout bus; each replica's
// applier thread replays the log tail up to the primary's watermark and
// advances an explicit per-replica apply watermark (exported as
// "engine.replica_watermark_lag" gauges).
//
// There is one read path. Every replica's DynamicHeteroGraph exists from
// construction (a replica that has applied nothing serves the base rows),
// and a worker serves each batch from one epoch snapshot of it through the
// graph::GraphView interface the ROI sampler uses. A single request is a
// batch of one.
//
// Routing picks the least-loaded *alive* replica of the owning shard. A
// request may carry a min_epoch floor (read-your-writes — a session's reads
// pin to replicas whose watermark covers its own writes). When no alive
// replica qualifies within a bounded wait, the request is served off the
// primary graph (a counted stale-fallback) so freshness floors are honored
// even mid-recovery.
//
// Failure injection: KillReplica parks a replica's applier and removes it
// from routing (serving degrades to the surviving replicas); its frozen log
// cursor pins the delta-log tail it will need. ReviveReplica resumes the
// applier, which rebuilds state by replaying the log from the last
// watermark — the same replay path a durability tier would use.
#ifndef ZOOMER_ENGINE_DISTRIBUTED_GRAPH_ENGINE_H_
#define ZOOMER_ENGINE_DISTRIBUTED_GRAPH_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "graph/graph_view.h"
#include "graph/hetero_graph.h"
#include "obs/metrics.h"

namespace zoomer {

namespace streaming {
class DynamicHeteroGraph;
class GraphDeltaLog;
}  // namespace streaming

namespace engine {

struct EngineOptions {
  int num_shards = 4;
  int replication_factor = 2;
  /// Simulated per-request network + serialization latency (microseconds);
  /// 0 disables the artificial delay (pure in-memory cost). Applied on the
  /// replica worker thread *before* sampling, so it contributes queueing
  /// pressure (load) without polluting the service-time histogram —
  /// "engine.sample_latency_us" measures the sample alone, while
  /// "engine.request_latency_us" measures submit -> completion (queueing +
  /// simulated RPC + service).
  int simulated_rpc_micros = 0;
  /// Bounded wait (microseconds) for some alive replica to satisfy a
  /// request's freshness floor before falling back to serving the request
  /// off the primary graph (counted in "engine.stale_fallback_reads").
  int freshness_wait_micros = 5000;
  /// Metrics registry for engine throughput instruments ("engine." names).
  /// Null means the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

struct SampleRequest {
  graph::NodeId node = -1;
  int k = 10;
  uint64_t rng_seed = 0;
  /// Read-your-writes floor: route only to replicas whose apply watermark
  /// covers this epoch (0 = no constraint). Stamp it with the delta-log
  /// epoch of the session's own last write (the ingest pipeline's update
  /// listener reports it). Before ConnectUpdateFanout no write can reach a
  /// replica, so the floor is ignored.
  uint64_t min_epoch = 0;
};

struct SampleResponse {
  std::vector<graph::NodeId> neighbors;
  std::vector<float> weights;
};

/// Health + progress of one replica, as reported by EngineStats.
struct ReplicaStatus {
  int shard = 0;
  int replica = 0;  // index within the shard's group
  bool alive = true;
  /// Epochs applied through (0 before ConnectUpdateFanout).
  uint64_t watermark = 0;
  int64_t requests = 0;
};

struct EngineStats {
  std::vector<int64_t> requests_per_replica;
  int64_t total_requests = 0;
  size_t storage_bytes_per_shard = 0;
  /// Streaming-update traffic routed to each shard by the ingest pipeline.
  std::vector<int64_t> update_events_per_shard;
  int64_t total_update_events = 0;
  /// Per-replica health and apply progress (shard-major order).
  std::vector<ReplicaStatus> replicas;
  int64_t dead_replicas = 0;
  /// Primary graph's watermark (0 before ConnectUpdateFanout).
  uint64_t primary_watermark = 0;
  /// Requests served off the primary because no alive replica met the
  /// freshness floor within the bounded wait.
  int64_t stale_fallback_reads = 0;
  /// Requests that reached a replica killed after they were routed (the
  /// detection window); the router never sends new traffic to a dead one.
  int64_t killed_inflight_failures = 0;
};

/// One storage shard: the subset of nodes whose hash maps to this shard.
/// Replicas share the same node set but serve requests independently.
class GraphShard {
 public:
  GraphShard(const graph::HeteroGraph* g, int shard_id, int num_shards);

  bool Owns(graph::NodeId node) const {
    return NodeShard(node, num_shards_) == shard_id_;
  }
  static int NodeShard(graph::NodeId node, int num_shards) {
    // Knuth multiplicative hash with the high half folded down. The modulo
    // (shard counts are usually powers of two) reads only the product's low
    // bits, which are constant across ids that share a stride divisible by
    // num_shards — the xor-fold mixes the well-shuffled high bits in so
    // strided id ranges still spread evenly.
    uint64_t h = static_cast<uint64_t>(node) * 2654435761ull;
    h ^= h >> 32;
    return static_cast<int>(h % static_cast<uint64_t>(num_shards));
  }

  /// Weighted sample of up to k distinct neighbors (with their edge
  /// weights) per request, one response per request in order, all drawn
  /// from `view`. The engine passes one epoch snapshot of a replica's (or
  /// the primary's) graph per batch. A foreign or out-of-range node fails
  /// only its own slot.
  std::vector<StatusOr<SampleResponse>> SampleMany(
      const graph::GraphView& view, std::span<const SampleRequest> reqs) const;

  int64_t num_owned_nodes() const { return owned_.size(); }
  size_t MemoryBytes() const;

 private:
  const graph::HeteroGraph* graph_;
  int shard_id_;
  int num_shards_;
  std::vector<graph::NodeId> owned_;
};

/// Client-facing engine: routes requests to shard replica groups over
/// per-replica worker threads, fans streamed deltas out to per-replica
/// apply threads, and collects load/health statistics.
class DistributedGraphEngine {
 public:
  DistributedGraphEngine(const graph::HeteroGraph* g, EngineOptions options);
  ~DistributedGraphEngine();

  /// One request: a batch of one through SampleMany.
  StatusOr<SampleResponse> Sample(const SampleRequest& req);

  /// Batched sampling: responses in request order. Requests are grouped by
  /// owning shard; each group routes once (floor = the group's max
  /// min_epoch) and runs as ONE task on the chosen replica's worker, which
  /// serves the whole group under one epoch snapshot (GraphShard::
  /// SampleMany). Records engine.sample_batch_size per shard-group. May
  /// block the caller up to freshness_wait_micros while routing when no
  /// alive replica satisfies a group's freshness floor.
  std::vector<StatusOr<SampleResponse>> SampleMany(
      std::span<const SampleRequest> reqs);

  EngineStats Stats() const;
  int num_replicas() const { return static_cast<int>(replicas_.size()); }

  /// Connects the replicas to the update stream: gives every replica an
  /// apply thread consuming `log` through a registered per-replica cursor,
  /// bounded by `primary`'s watermark (the ingest pipeline's graph). Call
  /// once, before ingest starts and before sampling traffic; `log` and
  /// `primary` must outlive this engine.
  void ConnectUpdateFanout(streaming::GraphDeltaLog* log,
                           const streaming::DynamicHeteroGraph* primary);

  /// Called by the ingest pipeline when a delta batch lands on `shard`;
  /// surfaces per-shard update traffic in Stats().
  void RecordShardUpdate(int shard, int64_t num_events);

  /// Called by the ingest pipeline after applying epoch `epoch` to the
  /// primary: wakes the shard's replica appliers (every shard's, when
  /// `all_shards` — node-mint batches grow the global id-space and must
  /// reach every replica). No-op until ConnectUpdateFanout.
  void PublishDelta(int shard, uint64_t epoch, bool all_shards = false);

  /// Failure injection: marks the replica dead — the router skips it, its
  /// applier parks (the frozen log cursor pins the replay tail), and
  /// requests already queued on its worker fail with Unavailable (counted).
  /// Serving continues degraded on the shard's surviving replicas.
  void KillReplica(int shard, int replica);

  /// Recovery: marks the replica alive again; its applier replays the
  /// delta log from the last watermark until it has caught up with the
  /// primary (watch AwaitReplicaCatchUp / the lag gauge return to 0).
  void ReviveReplica(int shard, int replica);

  bool IsReplicaAlive(int shard, int replica) const;

  /// Epochs the replica has applied through (0 before ConnectUpdateFanout).
  uint64_t ReplicaWatermark(int shard, int replica) const;

  /// The replica's delta view once it is connected to the update stream
  /// (null before ConnectUpdateFanout).
  const streaming::DynamicHeteroGraph* ReplicaGraph(int shard,
                                                    int replica) const;

  /// Blocks until the replica's watermark reaches the primary's current
  /// watermark (true) or the timeout elapses (false).
  bool AwaitReplicaCatchUp(int shard, int replica,
                           int64_t timeout_micros) const;

 private:
  /// Cache-line-padded per-shard counter slot: the ingest consumers of
  /// different shards bump adjacent slots concurrently, so sharing a line
  /// would bounce it (the old vector<unique_ptr<atomic>> paid a pointer
  /// chase per update *and* let the allocator pack the atomics together).
  struct alignas(64) PaddedCounter {
    std::atomic<int64_t> v{0};
  };

  struct Replica {
    std::unique_ptr<GraphShard> shard;
    std::atomic<int64_t> requests{0};
    std::atomic<int64_t> inflight{0};
    std::atomic<bool> alive{true};
    /// The replica's graph: the shared base plus the deltas it applied.
    std::unique_ptr<streaming::DynamicHeteroGraph> dyn;
    // Update-stream state; unset before ConnectUpdateFanout.
    std::thread applier;                 // joined by the engine dtor
    std::atomic<uint64_t> watermark{0};  // epochs applied through
    int log_consumer = -1;               // GraphDeltaLog consumer id
    int shard_id = 0;
    int replica_id = 0;  // index within the group
    /// Per-replica gauges, registered under both the per-replica name and
    /// the aggregate ("engine.replica_watermark_lag" max-aggregates,
    /// "engine.queue_depth" sum-aggregates).
    obs::Gauge lag_gauge;
    obs::Gauge queue_gauge;
    /// Declared last: worker tasks read `shard` and `dyn`, so the pool must
    /// drain (ThreadPool dtor joins) before either is destroyed.
    std::unique_ptr<ThreadPool> worker;
  };

  /// Per-shard fanout bus: the ingest pipeline publishes applied epochs
  /// here; replica appliers of the shard block on it. The bus is a wakeup,
  /// not the data path — appliers read the shared log, bounded by the
  /// primary watermark. Appliers also poll on a short timeout, which covers
  /// cross-shard edge batches (an edge's dst may live on another shard than
  /// the src the batch was routed by) without a broadcast per batch.
  struct ShardBus {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t published = 0;  // guarded by mu
  };

  Replica* replica(int shard, int r) {
    return replicas_[static_cast<size_t>(shard) * options_.replication_factor +
                     r]
        .get();
  }
  const Replica* replica(int shard, int r) const {
    return replicas_[static_cast<size_t>(shard) * options_.replication_factor +
                     r]
        .get();
  }

  /// Routing result: the chosen replica (null = whole group dead) and
  /// whether the request must be served off the primary view (freshness
  /// fallback, counted in engine.stale_fallback_reads).
  struct RoutedTarget {
    Replica* rep = nullptr;
    bool use_primary = false;
  };

  /// Routing core of SampleMany: least-inflight alive replica of `shard`
  /// satisfying the freshness floor, with the bounded wait and primary
  /// fallback documented at the top of this file.
  RoutedTarget RouteToReplica(int shard, uint64_t floor);

  void ApplierLoop(Replica* rep);
  void RefreshReplicaGauges(Replica* rep) const;
  void SetDeadGauge();

  EngineOptions options_;
  obs::MetricsRegistry* registry_;  // resolved (never null)
  /// Registry-owned throughput instruments (resolved once at construction;
  /// Stats() stays the exact per-engine view from the atomics).
  obs::Counter* sample_requests_ = nullptr;   // engine.sample_requests
  obs::Counter* update_events_ = nullptr;     // engine.update_events
  obs::Histogram* sample_latency_us_ = nullptr;   // engine.sample_latency_us
  obs::Histogram* request_latency_us_ = nullptr;  // engine.request_latency_us
  obs::Histogram* sample_batch_size_ = nullptr;   // engine.sample_batch_size
  /// Per-engine views (registered; Unregistered on destruction).
  obs::Counter stale_fallback_reads_;      // engine.stale_fallback_reads
  obs::Counter killed_inflight_failures_;  // engine.killed_inflight_failures
  obs::Gauge dead_replicas_gauge_;         // engine.dead_replicas
  std::vector<std::pair<std::string, const void*>> registered_;

  std::vector<std::unique_ptr<Replica>> replicas_;  // shard-major layout
  std::unique_ptr<PaddedCounter[]> shard_update_events_;  // num_shards slots

  // Update-stream wiring (null until ConnectUpdateFanout).
  streaming::GraphDeltaLog* log_ = nullptr;
  std::atomic<const streaming::DynamicHeteroGraph*> primary_{nullptr};
  std::vector<std::unique_ptr<ShardBus>> buses_;  // one per shard
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> dead_replicas_{0};
};

}  // namespace engine
}  // namespace zoomer

#endif  // ZOOMER_ENGINE_DISTRIBUTED_GRAPH_ENGINE_H_
