// Materialized read path for delta-heavy ("hot") nodes. The dynamic overlay
// keeps reads on hot nodes correct but slow: every draw pays a lock-shard
// acquisition, an epoch upper_bound, and a two-level base+delta resample —
// ~6-14x a static-CSR alias draw once a node accumulates hundreds of deltas
// (ROADMAP: bench_streaming_freshness read-overhead item). This cache claws
// that back by materializing, per hot node, the fully merged (coalesced)
// neighbor list plus a rebuilt alias table, so snapshot sampling degrades to
// one lock-free slot load + an O(1) alias draw.
//
// Read protocol (lock-free draws under a snapshot pin):
//   - Entries live in a direct-indexed slot array (one atomic pointer per
//     node). Readers never lock: Find() is an acquire load + stamp checks.
//   - A reader first takes a Pin (DynamicHeteroGraph snapshots do this at
//     construction and hold it for their lifetime). Replaced or invalidated
//     entries are *retired*, not freed; retired memory is reclaimed only
//     when the pin count returns to zero — so a pointer obtained through
//     Find() stays valid for as long as the pin that covered the load.
//     New pins cannot reach retired entries (they left the slots first),
//     which keeps the reclamation check a plain counter.
//
// Consistency protocol (epoch-versioned, invalidated on apply/fold):
//   - An entry is stamped with the node's overlay version (the node_epoch
//     value its merge resolved — the max delta epoch of the node), the
//     generation of the *CSR segment backing the node* (the segmented base
//     rebuilds per segment; an incremental fold elsewhere must not kill
//     this entry).
//   - A snapshot may serve from the entry only if (a) the node's current
//     overlay version still equals the stamp (no delta applied since),
//     (b) the snapshot's epoch covers the stamp (the snapshot sees at least
//     everything merged), (c) the node's segment generation in the
//     snapshot's pinned base matches (the node's rows did not fold since).
//   - DynamicHeteroGraph invalidates eagerly on ApplyBatch (per touched
//     node) and per folded row range on CompactSegments
//     (InvalidateRange — entries of untouched segments keep serving across
//     incremental folds, replacing the old whole-cache Clear()); the
//     version check makes even a lost invalidation safe, only stale in
//     memory.
// Entries are refreshed by HotNodeRefreshPolicy on the maintenance
// scheduler; the read path never writes the cache.
#ifndef ZOOMER_MAINTENANCE_HOT_NODE_CACHE_H_
#define ZOOMER_MAINTENANCE_HOT_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/alias_table.h"
#include "graph/hetero_graph.h"
#include "maintenance/maintenance_policy.h"
#include "obs/metrics.h"

namespace zoomer {

namespace streaming {
class DynamicHeteroGraph;
}  // namespace streaming

namespace maintenance {

/// One materialized node: merged base+delta neighbors in GraphView's
/// parallel-array layout and an alias table over them. Namespace
/// scope (not nested) so DynamicHeteroGraph can name it through a forward
/// declaration.
struct HotNodeCacheEntry {
  uint64_t overlay_version = 0;  // node_epoch value the merge resolved
  /// Generation of the CSR segment backing the node at merge time
  /// (Snapshot::segment_generation) — NOT the graph-global generation, so
  /// incremental folds of other segments leave the entry valid.
  uint64_t segment_generation = 0;
  std::vector<graph::NodeId> ids;
  std::vector<float> weights;
  std::vector<graph::RelationKind> kinds;
  graph::AliasTable alias;
};

struct HotNodeCacheOptions {
  /// A node qualifies for materialization once its overlay holds at least
  /// this many delta half-edges (below it, the overlay merge is cheap).
  int64_t min_delta_entries = 16;
  /// Read-rate-aware admission: the refresh policy scales the per-segment
  /// admission floor by observed overlay-read traffic (SegStat reads since
  /// its last pass). A segment read above the fleet average admits nodes at
  /// as little as min_delta_entries / read_admit_boost; a cold one demands
  /// up to min_delta_entries * read_admit_boost. Delta count alone decides
  /// what is *expensive to merge*; reads decide what is *worth paying the
  /// materialization for*. 1.0 disables the scaling.
  double read_admit_boost = 4.0;
  /// Cap on materialized nodes; installs beyond it are rejected (counted).
  size_t max_entries = 1 << 16;
  /// Metrics registry the cache registers its counters with (names under
  /// "maintenance.hot_cache."). Null means the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

struct HotNodeCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;  // lookups with no (valid) entry
  int64_t installs = 0;
  int64_t rejected_installs = 0;  // capacity cap
  int64_t invalidations = 0;
  size_t entries = 0;
  size_t retired = 0;  // awaiting reclamation under live pins
};

class HotNodeOverlayCache {
 public:
  using Entry = HotNodeCacheEntry;

  /// `num_nodes` sizes the slot array (the graph's node-id space).
  explicit HotNodeOverlayCache(int64_t num_nodes,
                               HotNodeCacheOptions options = {});
  ~HotNodeOverlayCache();

  HotNodeOverlayCache(const HotNodeOverlayCache&) = delete;
  HotNodeOverlayCache& operator=(const HotNodeOverlayCache&) = delete;

  const HotNodeCacheOptions& options() const { return options_; }

  /// Registers a reader epoch. Entries retired while the returned token is
  /// alive are not reclaimed, so pointers from Find() stay valid until the
  /// token drops. Snapshots take one pin for their whole lifetime; the
  /// cache must outlive every pin.
  std::shared_ptr<void> PinReaders();

  /// Lock-free lookup: returns the node's entry iff it passes the
  /// consistency protocol above, nullptr otherwise. The caller must hold a
  /// pin taken before the call and keep it while using the pointer.
  /// `current_overlay_version` is the node's node_epoch loaded by the
  /// caller (the snapshot); `segment_generation` is the generation of the
  /// node's segment in the caller's pinned base.
  const Entry* Find(graph::NodeId node, uint64_t snapshot_epoch,
                    uint64_t current_overlay_version,
                    uint64_t segment_generation) const;

  /// Validity probe without stats side effects (refresh-policy skip check).
  bool IsFresh(graph::NodeId node, uint64_t current_overlay_version,
               uint64_t segment_generation) const;

  /// Installs/replaces the node's entry. Returns false when the capacity
  /// cap rejected a new node.
  bool Install(graph::NodeId node, Entry entry);

  void Invalidate(graph::NodeId node);
  /// Drops every entry with begin <= node < end — the per-segment
  /// invalidation an incremental fold issues for its rebuilt row ranges
  /// (whole-graph Clear() is reserved for teardown/tests).
  void InvalidateRange(graph::NodeId begin, graph::NodeId end);
  void Clear();

  size_t size() const;
  HotNodeCacheStats Stats() const;

 private:
  bool EntryValid(const Entry& entry, uint64_t current_overlay_version,
                  uint64_t segment_generation) const;

  /// Moves `entry` to the retired list and frees it (with everything else
  /// retired) once no pins are live. Caller holds write_mu_.
  void RetireLocked(Entry* entry);
  void MaybeReclaimLocked();
  void Unpin();

  HotNodeCacheOptions options_;
  std::vector<std::atomic<Entry*>> slots_;
  std::atomic<int64_t> pins_{0};

  /// Serializes writers (install / invalidate / clear — janitor-side, rare)
  /// and guards the retired list. Mutable so Stats() can report it.
  mutable std::mutex write_mu_;
  std::vector<Entry*> retired_;  // guarded by write_mu_

  std::atomic<size_t> total_entries_{0};
  // Registry-backed instruments ("maintenance.hot_cache." names); kept as
  // members so Stats() stays an exact per-cache view. Mutable: Find() is
  // logically const but counts.
  obs::MetricsRegistry* registry_;  // resolved (never null)
  mutable obs::Counter hits_;
  mutable obs::Counter misses_;
  obs::Counter installs_;
  obs::Counter rejected_installs_;
  obs::Counter invalidations_;
  std::vector<std::pair<std::string, const void*>> registered_;
};

/// Janitor policy that scans the dynamic graph for nodes past the hotness
/// threshold and (re)materializes their cache entries from a snapshot. Construction attaches the cache to the graph so snapshot reads
/// start consulting it; both must outlive the policy's scheduler.
class HotNodeRefreshPolicy final : public MaintenancePolicy {
 public:
  HotNodeRefreshPolicy(streaming::DynamicHeteroGraph* graph,
                       HotNodeOverlayCache* cache);
  /// Detaches the cache from the graph (if still the attached one), so the
  /// graph never dangles into a torn-down maintenance subsystem.
  ~HotNodeRefreshPolicy() override;

  const char* name() const override { return "hot_node_refresh"; }
  StatusOr<MaintenanceReport> RunOnce() override;

 private:
  streaming::DynamicHeteroGraph* graph_;
  HotNodeOverlayCache* cache_;
  /// Global-registry gauge refreshed each pass from the cache's counters.
  obs::Gauge* hit_ratio_ = nullptr;
  /// Segments whose admission floor dropped below the fleet default this
  /// pass (read-hammered segments); observable knob for tests/dashboards.
  obs::Gauge* read_boosted_segments_ = nullptr;
  /// Cumulative SegStat read counters at the last pass; the difference is
  /// the interval's overlay-read traffic per segment (same differencing the
  /// compaction policy uses for its fold budgets).
  std::vector<int64_t> last_reads_;
};

}  // namespace maintenance
}  // namespace zoomer

#endif  // ZOOMER_MAINTENANCE_HOT_NODE_CACHE_H_
