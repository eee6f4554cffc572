// GraphView adapter over the streaming delta overlay: the bridge that lets
// the ROI sampler (and through it the trainer) score freshly ingested edges
// without waiting for Compact(). The view holds one epoch-pinned Snapshot;
// all reads within a ROI expansion therefore observe a consistent graph.
// Refresh() re-pins to the latest watermark epoch — the trainer calls it at
// minibatch boundaries when the ingest pipeline signals new batches (see
// streaming/training_freshness.h).
//
// Thread-safety: concurrent reads are safe (Snapshot reads are), but
// Refresh() must not race reads on the same view — it is meant for a
// single-consumer loop such as the trainer. Give each reader thread its own
// view; they are cheap (one shared_ptr + one epoch).
// Snapshot reads on delta-heavy nodes transparently
// consult the attached maintenance::HotNodeOverlayCache (pre-merged lists +
// alias tables), so the view needs no cache plumbing of its own.
#ifndef ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_
#define ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_

#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "streaming/dynamic_hetero_graph.h"

namespace zoomer {
namespace streaming {

class DynamicGraphView final : public graph::GraphView {
 public:
  /// `graph` must outlive the view. Pins to the current watermark epoch.
  explicit DynamicGraphView(const DynamicHeteroGraph* graph)
      : graph_(graph), snapshot_(graph->MakeSnapshot()) {}

  /// Re-pins to the latest watermark epoch; returns the epoch now visible.
  uint64_t Refresh() {
    snapshot_ = graph_->MakeSnapshot();
    return snapshot_.epoch();
  }

  const DynamicHeteroGraph::Snapshot& snapshot() const { return snapshot_; }

  /// Epoch-pinned id-space: base nodes plus overlay nodes born at or below
  /// the pinned epoch — a node ingested mid-epoch appears here only after
  /// the next Refresh() that covers its birth epoch. The pinned base is a
  /// segmented HeteroGraph; untouched segments are shared across folds,
  /// so the zero-copy spans below stay valid for this view's lifetime.
  int64_t num_nodes() const override { return snapshot_.num_nodes(); }
  int content_dim() const override { return snapshot_.base().content_dim(); }
  // Node features are immutable once ingested; the snapshot resolves base
  // ids zero-copy and overlay ids through the append-only node records.
  graph::NodeType node_type(graph::NodeId id) const override {
    return snapshot_.node_type(id);
  }
  const float* content(graph::NodeId id) const override {
    return snapshot_.content(id);
  }
  std::span<const int64_t> slots(graph::NodeId id) const override {
    return snapshot_.slots(id);
  }
  int64_t degree(graph::NodeId id) const override {
    return snapshot_.Degree(id);
  }
  graph::NeighborBlock Neighbors(graph::NodeId id,
                                 graph::NeighborScratch* scratch) const override;
  graph::NeighborBlock NeighborsOfType(
      graph::NodeId id, graph::NodeType t,
      graph::NeighborScratch* scratch) const override;
  graph::NodeId SampleNeighbor(graph::NodeId id, Rng* rng) const override {
    return snapshot_.SampleNeighbor(id, rng);
  }
  void SampleManyNeighbors(std::span<const graph::NodeId> nodes, int k,
                           Rng* rng,
                           std::vector<graph::NodeId>* out) const override {
    snapshot_.SampleManyNeighbors(nodes, k, rng, out);
  }
  std::vector<graph::NodeId> SampleDistinctNeighbors(graph::NodeId id, int k,
                                                     Rng* rng) const override {
    return snapshot_.SampleDistinctNeighbors(id, k, rng);
  }
  uint64_t epoch() const override { return snapshot_.epoch(); }

 private:
  const DynamicHeteroGraph* graph_;
  DynamicHeteroGraph::Snapshot snapshot_;
};

}  // namespace streaming
}  // namespace zoomer

#endif  // ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_
