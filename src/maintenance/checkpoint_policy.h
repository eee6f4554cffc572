// Durability as a janitor concern (ROADMAP durability item): a maintenance
// policy that drives the persist layer on the same cadence as compaction.
// Each pass asks the graph for its safe-truncate epoch; if
// it advanced far enough past the last durable checkpoint, the policy
// writes an incremental checkpoint (CheckpointWriter reuses every segment
// whose generation is unchanged) and then tells the DeltaLogPersister to
// rotate and garbage-collect the WAL files the new checkpoint covers.
//
// The policy never blocks the serving path: CheckpointWriter snapshots
// through the graph's concurrent-safe accessors, and WAL rotation happens
// on this janitor thread while appends continue into the new active file.
#ifndef ZOOMER_MAINTENANCE_CHECKPOINT_POLICY_H_
#define ZOOMER_MAINTENANCE_CHECKPOINT_POLICY_H_

#include <cstdint>

#include "maintenance/maintenance_policy.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "streaming/dynamic_hetero_graph.h"

namespace zoomer {
namespace maintenance {

struct CheckpointPolicyOptions {
  /// Write a checkpoint only once SafeTruncateEpoch has advanced at least
  /// this far past the last durable checkpoint. 1 = checkpoint whenever
  /// anything new became coverable; larger values amortize churn.
  uint64_t min_epoch_advance = 1;
};

class CheckpointPolicy final : public MaintenancePolicy {
 public:
  /// `persister` is optional (nullptr skips WAL rotation/GC — checkpoints
  /// still land). All pointers must outlive the scheduler.
  CheckpointPolicy(streaming::DynamicHeteroGraph* graph,
                   persist::CheckpointWriter* writer,
                   persist::DeltaLogPersister* persister,
                   CheckpointPolicyOptions options = {});

  const char* name() const override { return "checkpoint"; }
  StatusOr<MaintenanceReport> RunOnce() override;

  int64_t checkpoints() const { return checkpoints_; }

 private:
  streaming::DynamicHeteroGraph* graph_;
  persist::CheckpointWriter* writer_;
  persist::DeltaLogPersister* persister_;
  const CheckpointPolicyOptions options_;

  int64_t checkpoints_ = 0;  // scheduler serializes RunOnce; no locking
};

}  // namespace maintenance
}  // namespace zoomer

#endif  // ZOOMER_MAINTENANCE_CHECKPOINT_POLICY_H_
