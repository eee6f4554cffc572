// Pluggable units of background graph upkeep driven by the
// MaintenanceScheduler (the "janitor" of the streaming subsystem). A policy
// owns one concern — compacting delta overlays, refreshing hot-node
// caches, checkpointing — and exposes a single idempotent RunOnce()
// pass. Policies never block the serving path: they run on janitor threads
// and interact with the graph through the same concurrency-safe entry points
// callers use (Compact()'s quiescence handshake, exclusive shard sweeps).
//
// RunOnce() reports what changed so the scheduler can fan the consequences
// out to listeners (e.g. serving-layer NeighborCache invalidation) without
// the policy knowing who is downstream.
#ifndef ZOOMER_MAINTENANCE_MAINTENANCE_POLICY_H_
#define ZOOMER_MAINTENANCE_MAINTENANCE_POLICY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/hetero_graph.h"

namespace zoomer {
namespace maintenance {

/// What a maintenance pass changed, for downstream invalidation.
struct MaintenanceReport {
  /// False for a pass that inspected state and found nothing to do.
  bool acted = false;
  /// The base was swapped (a full or incremental fold). Weighted
  /// distributions are preserved by the fold, so serving caches stay
  /// content-valid; overlay epoch state of the folded rows is reset.
  bool graph_rebuilt = false;
  /// Nodes whose visible neighborhood changed. Listeners invalidate
  /// per-node caches with this.
  std::vector<graph::NodeId> touched;
  /// Human-readable one-liner for logs and stats.
  std::string detail;
};

class MaintenancePolicy {
 public:
  virtual ~MaintenancePolicy() = default;

  /// Stable identifier used by MaintenanceScheduler::RunOnceForTest and
  /// per-policy stats.
  virtual const char* name() const = 0;

  /// One maintenance pass. Must be safe to call concurrently with readers
  /// and the ingest pipeline; the scheduler serializes passes of the same
  /// policy (including RunOnceForTest) so implementations need not be
  /// re-entrant.
  virtual StatusOr<MaintenanceReport> RunOnce() = 0;
};

}  // namespace maintenance
}  // namespace zoomer

#endif  // ZOOMER_MAINTENANCE_MAINTENANCE_POLICY_H_
