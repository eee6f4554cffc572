// Per-node neighbor cache for online serving (paper Sec. VII-E): the
// production deployment caches the k last-visited neighbors of each user and
// query node (k = 30) and refreshes entries fully asynchronously from user
// requests, decoupling neighbor *sampling* from neighbor *aggregation*.
//
// Every fill computes its top-k through the graph::GraphView interface: a
// CsrGraphView over the offline graph, or, with a DynamicHeteroGraph
// attached, a DynamicGraphView over base + delta overlays. Invalidate()
// drops a stale entry and schedules an asynchronous re-fill — the ingest
// pipeline's update hooks call this so responses reflect freshly ingested
// edges.
#ifndef ZOOMER_SERVING_NEIGHBOR_CACHE_H_
#define ZOOMER_SERVING_NEIGHBOR_CACHE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "graph/hetero_graph.h"
#include "obs/metrics.h"

namespace zoomer {

namespace streaming {
class DynamicHeteroGraph;
}  // namespace streaming

namespace serving {

struct NeighborCacheOptions {
  int k = 30;  // production value (paper Sec. VII-E)
  /// Artificial delay before each background fill (microseconds); simulates
  /// refresh cost and widens the async window deterministically in tests.
  int refresh_delay_micros = 0;
  /// Metrics registry the cache registers its counters with (names under
  /// "serving.neighbor_cache."). Null means the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Counter snapshot in the style of EngineStats.
struct NeighborCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;
  int64_t scheduled_fills = 0;  // background fills actually enqueued
  int64_t completed_fills = 0;  // fills (sync or async) that landed
  size_t entries = 0;
};

/// Read-mostly cache: Get never blocks on graph sampling — a miss returns
/// false and schedules an asynchronous fill, mirroring the paper's
/// "cache updating is fully asynchronous from users' timely requests".
/// Concurrent misses on one node coalesce into a single background fill,
/// run by one refresher thread.
class NeighborCache {
 public:
  NeighborCache(const graph::HeteroGraph* g, NeighborCacheOptions options);
  ~NeighborCache();

  /// Serve top-k reads over base + streaming deltas (nullptr restores
  /// offline-graph reads). The view must outlive the cache.
  void AttachDynamicGraph(const streaming::DynamicHeteroGraph* dynamic);

  /// Returns true and fills `out` on hit; on miss schedules a background
  /// fill (unless one is already pending for this node) and returns false.
  bool Get(graph::NodeId node, std::vector<graph::NodeId>* out);

  /// Synchronous fills (used for warmup before load tests). WarmAll reads
  /// the whole list through one view (one epoch pin when a dynamic graph is
  /// attached); Warm is a list of one.
  void Warm(graph::NodeId node);
  void WarmAll(const std::vector<graph::NodeId>& nodes);

  /// Drops the node's entry and schedules an asynchronous re-fill, so the
  /// next request after a graph update sees fresh neighbors. No-op for
  /// nodes that were never cached.
  void Invalidate(graph::NodeId node);
  void InvalidateAll();

  int64_t hits() const { return hits_.Value(); }
  int64_t misses() const { return misses_.Value(); }
  size_t size() const;
  NeighborCacheStats Stats() const;

 private:
  /// Calls `fn` with the view fills read: a DynamicGraphView pinned now
  /// when a dynamic graph is attached, else a CsrGraphView of the offline
  /// graph.
  template <typename Fn>
  void WithView(Fn&& fn) const;
  /// Enqueues a background fill unless one is already pending. Caller must
  /// not hold mu_.
  void ScheduleFill(graph::NodeId node);
  void SubmitFill(graph::NodeId node);
  void FillTask(graph::NodeId node);

  const graph::HeteroGraph* graph_;
  std::atomic<const streaming::DynamicHeteroGraph*> dynamic_{nullptr};
  NeighborCacheOptions options_;
  mutable std::shared_mutex mu_;
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> cache_;
  /// In-flight background fills; the bool marks a fill whose inputs were
  /// invalidated mid-compute, so it must re-run after it lands. Guarded by
  /// mu_.
  std::unordered_map<graph::NodeId, bool> pending_fills_;
  // Registry-backed instruments ("serving.neighbor_cache." names); the
  // members keep Stats()/hits()/misses() exact per-cache views.
  obs::MetricsRegistry* registry_;  // resolved (never null)
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter invalidations_;
  obs::Counter scheduled_fills_;
  obs::Counter completed_fills_;
  obs::Histogram* fill_latency_us_;  // registry-owned, shared by name
  std::vector<std::pair<std::string, const void*>> registered_;
  /// Declared last: its destructor joins in-flight fills, which touch every
  /// member above — reverse destruction order keeps them alive until then.
  std::unique_ptr<ThreadPool> refresher_;
};

}  // namespace serving
}  // namespace zoomer

#endif  // ZOOMER_SERVING_NEIGHBOR_CACHE_H_
