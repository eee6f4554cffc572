// Unified read view over a heterogeneous graph (ROADMAP: delta-aware ROI
// sampling). The ROI sampler, relevance scorer, and trainer all consume this
// interface instead of the concrete CSR, so the same sampling code runs over
//   - an immutable HeteroGraph (CsrGraphView, zero-copy spans into its
//     segments) — the offline graph, or a snapshot's pinned base, and
//   - the streaming delta overlay (streaming::DynamicGraphView, epoch-pinned
//     snapshots that merge base CSR ranges with per-node delta suffixes).
// A training run attached to the ingest pipeline therefore scores neighbors
// over base+delta without waiting for Compact().
//
// Neighbor iteration hands out a NeighborBlock of parallel spans. The static
// view points the spans straight into the CSR arrays; dynamic views resolve
// the merged (coalesced) block into caller-provided scratch, so the hot
// static path stays allocation-free and the delta path pays one merge. The
// spans are valid until the next Neighbors() call on the same scratch or any
// mutation of the underlying view.
#ifndef ZOOMER_GRAPH_GRAPH_VIEW_H_
#define ZOOMER_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/hetero_graph.h"

namespace zoomer {
namespace graph {

/// Resolved neighbor block of one node: parallel (id, weight, kind) ranges.
struct NeighborBlock {
  std::span<const NodeId> ids;
  std::span<const float> weights;
  std::span<const RelationKind> kinds;

  int64_t size() const { return static_cast<int64_t>(ids.size()); }
  bool empty() const { return ids.empty(); }
};

/// Caller-owned buffers a view may resolve a merged neighbor block into.
/// Reuse one scratch across calls to amortize allocation.
struct NeighborScratch {
  std::vector<NodeId> ids;
  std::vector<float> weights;
  std::vector<RelationKind> kinds;
};

/// Zero-copy typed sub-block of a node's neighbor arrays: the parallel
/// (id, weight, kind) spans of its neighbors of type `t`.
inline NeighborBlock TypedCsrBlock(const HeteroGraph& g, NodeId id,
                                   NodeType t) {
  const auto [seg, r] = g.Locate(id);
  const auto [b, e] = seg->row_typed_range(r, t);
  const size_t off = static_cast<size_t>(b);
  const size_t len = static_cast<size_t>(e - b);
  return {seg->row_neighbor_ids(r).subspan(off, len),
          seg->row_neighbor_weights(r).subspan(off, len),
          seg->row_neighbor_kinds(r).subspan(off, len)};
}

/// Read interface shared by the static CSR and the streaming delta overlay.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual int64_t num_nodes() const = 0;
  virtual int content_dim() const = 0;
  virtual NodeType node_type(NodeId id) const = 0;

  /// Dense content vector (content_dim floats) used by relevance scoring.
  virtual const float* content(NodeId id) const = 0;

  /// Categorical feature-slot ids embedded by the models.
  virtual std::span<const int64_t> slots(NodeId id) const = 0;

  /// Half-edge count visible through this view. Dynamic views count delta
  /// entries with parallel-edge semantics, so this is an upper bound on
  /// Neighbors().size() (which coalesces duplicates by (neighbor, kind)).
  virtual int64_t degree(NodeId id) const = 0;

  /// Merged neighbor block of `id`; may resolve into `scratch`.
  virtual NeighborBlock Neighbors(NodeId id, NeighborScratch* scratch) const = 0;

  /// Neighbors of `id` whose endpoint is of type `t` — the grouping
  /// edge-level attention consumes (it only compares neighbors of one
  /// type). The static view hands out the CSR's contiguous typed sub-range
  /// zero-copy; the dynamic view merges the typed base range with only the
  /// matching delta entries (no full-neighborhood merge). The default
  /// filters Neighbors() into `scratch`, correct for any view.
  virtual NeighborBlock NeighborsOfType(NodeId id, NodeType t,
                                        NeighborScratch* scratch) const;

  /// One weighted neighbor draw (alias table on the static path, two-level
  /// base+delta resampling on the dynamic path). -1 for isolated nodes.
  virtual NodeId SampleNeighbor(NodeId id, Rng* rng) const = 0;

  /// Batched weighted draws: k draws (with replacement) per node, written
  /// row-major into `out` (resized to nodes.size()*k; isolated nodes leave
  /// -1 rows). Every implementation consumes the Rng draw-for-draw exactly
  /// like k SampleNeighbor calls per node in order, so the default loop and
  /// the batched overrides are bit-identical under a fixed seed. Overrides
  /// (CsrGraphView, the dynamic snapshot) pin the epoch snapshot once per
  /// batch, prefetch CSR rows and alias buckets one node ahead, and draw
  /// through AliasTable::SampleBatch.
  virtual void SampleManyNeighbors(std::span<const NodeId> nodes, int k,
                                   Rng* rng, std::vector<NodeId>* out) const;

  /// Up to k distinct weighted draws with bounded (4k) retries. The default
  /// loops SampleNeighbor; dynamic views override to batch the draws under
  /// one lock acquisition.
  virtual std::vector<NodeId> SampleDistinctNeighbors(NodeId id, int k,
                                                      Rng* rng) const;

  /// Epoch of the freshest edit visible through this view (0 = static).
  virtual uint64_t epoch() const { return 0; }
};

/// Zero-copy adapter over an immutable HeteroGraph. Cheap to construct
/// (stores one pointer); `base` must outlive the view (snapshots pin their
/// base, satisfying this on the streaming read path).
class CsrGraphView final : public GraphView {
 public:
  explicit CsrGraphView(const HeteroGraph* base) : g_(base) {}
  explicit CsrGraphView(const HeteroGraph& base) : g_(&base) {}

  int64_t num_nodes() const override { return g_->num_nodes(); }
  int content_dim() const override { return g_->content_dim(); }
  NodeType node_type(NodeId id) const override { return g_->node_type(id); }
  const float* content(NodeId id) const override { return g_->content(id); }
  std::span<const int64_t> slots(NodeId id) const override {
    return g_->slots(id);
  }
  int64_t degree(NodeId id) const override { return g_->degree(id); }
  NeighborBlock Neighbors(NodeId id, NeighborScratch*) const override {
    return {g_->neighbor_ids(id), g_->neighbor_weights(id),
            g_->neighbor_kinds(id)};
  }
  NeighborBlock NeighborsOfType(NodeId id, NodeType t,
                                NeighborScratch*) const override {
    return TypedCsrBlock(*g_, id, t);
  }
  NodeId SampleNeighbor(NodeId id, Rng* rng) const override {
    return g_->SampleNeighbor(id, rng);
  }
  void SampleManyNeighbors(std::span<const NodeId> nodes, int k, Rng* rng,
                           std::vector<NodeId>* out) const override {
    g_->SampleManyNeighbors(nodes, k, rng, out);
  }

  const HeteroGraph& csr() const { return *g_; }

 private:
  const HeteroGraph* g_;
};

}  // namespace graph
}  // namespace zoomer

#endif  // ZOOMER_GRAPH_GRAPH_VIEW_H_
