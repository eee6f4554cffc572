// Append-only log of streaming edge events (paper Sec. VI: the production
// deployment continuously re-ingests Taobao behavior logs; here the log is
// the durable record between the ingestion pipeline and the dynamic graph
// view). The log is sharded the same way the distributed graph engine
// hash-partitions nodes, so one log shard feeds one graph shard. Every
// appended batch receives a globally monotonically increasing epoch; epochs
// are the unit of snapshot isolation in DynamicHeteroGraph and the replay
// cursor for recovery (ReadSince).
#ifndef ZOOMER_STREAMING_GRAPH_DELTA_LOG_H_
#define ZOOMER_STREAMING_GRAPH_DELTA_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/hetero_graph.h"

namespace zoomer {
namespace streaming {

/// One streaming half-edge-pair event: an undirected edge (src, dst) of the
/// given relation kind observed online (a click, a session adjacency, or a
/// freshly computed similarity pair). Endpoints may use the placeholder
/// convention -1-k to reference the k-th NodeEvent of the same batch (see
/// AppendWithNodes), resolved to the freshly assigned id at append time.
struct EdgeEvent {
  graph::NodeId src = -1;
  graph::NodeId dst = -1;
  graph::RelationKind kind = graph::RelationKind::kClick;
  float weight = 1.0f;
  int64_t timestamp = 0;  // seconds, event time
};

/// A brand-new node observed online (id-space growth): a cold-start item,
/// a first-session user, or a never-seen query. Carries everything the
/// offline builder's AddNode takes; `id` is assigned by AppendWithNodes
/// through the graph's allocator (leave it -1) so overlay ids stay monotone
/// in birth epoch — the invariant epoch-pinned num_nodes() relies on.
struct NodeEvent {
  graph::NodeId id = -1;
  graph::NodeType type = graph::NodeType::kItem;
  std::vector<float> content;      // content_dim floats
  std::vector<int64_t> slots;      // categorical feature-slot ids
  int64_t timestamp = 0;           // seconds, event time
};

/// A batch of events stamped with the epoch the log assigned on append.
/// Node events apply before edge events, so one batch can introduce a node
/// and its first edges atomically (same epoch = same visibility instant).
struct DeltaBatch {
  uint64_t epoch = 0;
  std::vector<EdgeEvent> events;
  std::vector<NodeEvent> node_events;
};

struct DeltaLogStats {
  uint64_t last_epoch = 0;
  int64_t total_events = 0;
  int64_t total_node_events = 0;
  int64_t total_batches = 0;
  std::vector<int64_t> events_per_shard;
};

/// Sharded append-only event log. Appends are serialized per shard; epoch
/// assignment is a single global atomic so epochs order batches across
/// shards. Batches are retained in memory (this reproduction has no disk
/// tier) until Truncate() releases everything up to a compaction epoch.
class GraphDeltaLog {
 public:
  explicit GraphDeltaLog(int num_shards = 4);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Appends a batch to `shard` and returns its freshly assigned epoch.
  /// Events are moved into the log; the returned epoch is > every epoch
  /// returned by earlier Append calls (across all shards).
  ///
  /// `on_issue`, when provided, is invoked with the new epoch atomically
  /// with its assignment (i.e. before any later epoch can be issued). The
  /// appender that will apply the batch passes its graph's
  /// DynamicHeteroGraph::NoteEpochIssued here so snapshots pin to the
  /// cross-shard watermark — per-call, so pipelines feeding *different*
  /// graphs from one shared log only mark the epochs they will themselves
  /// apply (the ingest pipeline wires this automatically).
  using EpochObserver = std::function<void(uint64_t epoch)>;
  uint64_t Append(int shard, std::vector<EdgeEvent> events,
                  const EpochObserver& on_issue = {});

  /// Assigns one fresh node id per event, all born at `epoch`, and returns
  /// the first id of the contiguous range — or an error (per-type capacity
  /// exhausted) in which case nothing was allocated. Pass
  /// DynamicHeteroGraph::AllocateNodeIds (the ingest pipeline wires
  /// this): the log invokes it inside the same critical section that
  /// orders epoch issuance, so overlay ids are monotone in birth epoch
  /// across shards and threads, and capacity rejection happens before any
  /// id is burned.
  using NodeIdAllocator = std::function<StatusOr<graph::NodeId>(
      const std::vector<NodeEvent>& nodes, uint64_t epoch)>;

  /// Appends a batch that grows the id-space: every NodeEvent in `*nodes`
  /// with id -1 receives a freshly allocated id (written back to the
  /// caller's vector), and edge endpoints using the -1-k placeholder are
  /// resolved to the k-th node's new id (also in place, so the caller can
  /// ApplyBatch the same data the log recorded). `edges` may be null for a
  /// node-only batch. Epoch semantics match Append. A rejected allocation
  /// (per-type capacity) propagates without recording anything — the
  /// already-issued epoch becomes a harmless hole in the sequence (never
  /// marked pending, never applied).
  StatusOr<uint64_t> AppendWithNodes(int shard, std::vector<NodeEvent>* nodes,
                                     std::vector<EdgeEvent>* edges,
                                     const NodeIdAllocator& alloc,
                                     const EpochObserver& on_issue = {});

  // ---- durable tee (persist::DeltaLogPersister) ---------------------------

  /// Observer invoked with every recorded batch, under its shard's lock and
  /// after the batch is in the in-memory log — the tee the WAL persister
  /// hangs off so Append returning implies the batch is (at least buffered)
  /// on its way to disk. Because the call runs inside the shard critical
  /// section, per-shard WAL order matches log order; across shards records
  /// may interleave out of epoch order, which recovery resolves by sorting
  /// (exactly as ReadSince does). Pass an empty function to detach. The
  /// observer must not call back into this log.
  ///
  /// The install also hands the new observer every batch already in the
  /// log with epoch > `replay_after` (per shard, in log order; the default
  /// replays nothing). Every shard lock is held across install and replay,
  /// so a batch racing the install reaches the observer exactly once:
  /// replayed if it landed before, notified if after. The caller must not
  /// hold a lock its observer takes — appends hold a shard lock and the
  /// observer lock while they notify.
  using AppendObserver = std::function<void(int shard,
                                            const DeltaBatch& batch)>;
  void SetAppendObserver(
      AppendObserver observer,
      uint64_t replay_after = std::numeric_limits<uint64_t>::max());

  /// Recovery-only: re-inserts a batch replayed from the WAL with its
  /// *original* epoch (never re-issued), so a recovered process's in-memory
  /// log carries the same tail a survivor's would — replica revival and
  /// consumer cursors keep working across a restart. Advances the epoch
  /// sequence past the restored epoch. Batches must be restored in epoch
  /// order per shard; the append observer is not invoked (the tail is
  /// already durable). Rejects epoch 0.
  Status RestoreBatch(int shard, DeltaBatch batch);

  /// Raises the epoch sequence so every future append is issued above
  /// `epoch`. Recovery calls this with the checkpoint epoch even when the
  /// WAL tail is empty — a fresh log restarting at epoch 1 would collide
  /// with the epochs already folded into the recovered base.
  void AdvanceEpochFloor(uint64_t epoch);

  /// Epoch of the most recent append, 0 if the log is empty.
  uint64_t last_epoch() const {
    return next_epoch_.load(std::memory_order_acquire) - 1;
  }

  /// All batches with epoch > `epoch`, across shards, sorted by epoch.
  /// Replay cursor for recovery and for rebuilding a dynamic view.
  std::vector<DeltaBatch> ReadSince(uint64_t epoch) const;

  /// Bounded replay read: batches with `epoch` < batch epoch <= `max_epoch`,
  /// sorted. Replica appliers bound reads by the primary graph's watermark —
  /// a watermark-covered epoch is guaranteed fully appended (batches are
  /// inserted into their shard vector outside the epoch lock, so an
  /// unbounded read could observe epoch N+1 before N lands).
  std::vector<DeltaBatch> ReadSince(uint64_t epoch, uint64_t max_epoch) const;

  // ---- replay consumers (replica apply cursors) ---------------------------
  // Each replica of the distributed engine owns a cursor into this log.
  // While a consumer is registered, Truncate clamps to the
  // minimum cursor, so a lagging — or killed — replica's replay tail
  // survives until it catches up (or is unregistered). This is what makes
  // ReviveReplica's "rebuild by replaying from the last watermark" safe
  // against concurrent fold-driven truncation.

  /// Registers a consumer whose cursor starts at `start_epoch` (it still
  /// needs every batch with epoch > start_epoch). Returns the consumer id.
  int RegisterConsumer(uint64_t start_epoch = 0);

  /// Advances the consumer's cursor (monotone; lower values are ignored).
  void AdvanceConsumer(int id, uint64_t epoch);

  /// Drops the consumer; its cursor no longer pins retention.
  void UnregisterConsumer(int id);

  uint64_t ConsumerCursor(int id) const;

  /// Smallest registered cursor, or UINT64_MAX when no consumer is
  /// registered — the retention floor Truncate respects.
  uint64_t MinConsumerEpoch() const;

  /// Drops batches with epoch <= `epoch` (called after compaction folds
  /// them into the base CSR — with incremental segment folds, pass
  /// DynamicHeteroGraph::SafeTruncateEpoch()). Clamped to
  /// MinConsumerEpoch(): a registered replay consumer's unconsumed tail is
  /// never dropped, however far compaction has folded.
  void Truncate(uint64_t epoch);

  DeltaLogStats Stats() const;
  size_t MemoryBytes() const;

 private:
  /// Runs the attached append observer (if any); caller holds the shard's
  /// lock so the tee sees batches in shard order.
  void NotifyAppendLocked(int shard, const DeltaBatch& batch);

  struct Shard {
    mutable std::mutex mu;
    std::vector<DeltaBatch> batches;  // epoch-ordered within the shard
    int64_t events = 0;
    int64_t node_events = 0;
  };

  std::atomic<uint64_t> next_epoch_{1};
  /// Replay-consumer cursors (consumer id -> last consumed epoch).
  mutable std::mutex consumers_mu_;
  std::vector<std::pair<int, uint64_t>> consumers_;  // guarded above
  int next_consumer_id_ = 0;                         // guarded above
  /// Serializes epoch issuance with the on_issue notification: a later
  /// epoch cannot be issued (let alone applied) before an earlier one is
  /// reported pending, which the watermark correctness argument relies on.
  mutable std::mutex epoch_mu_;
  /// Durable tee; read under shared lock on every append, swapped under
  /// exclusive lock (attach/detach are rare — process start and teardown).
  mutable std::shared_mutex observer_mu_;
  AppendObserver append_observer_;  // guarded by observer_mu_
  std::vector<Shard> shards_;
};

}  // namespace streaming
}  // namespace zoomer

#endif  // ZOOMER_STREAMING_GRAPH_DELTA_LOG_H_
