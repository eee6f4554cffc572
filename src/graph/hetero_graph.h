// Heterogeneous user-query-item retrieval graph (paper Sec. II).
//
// Nodes carry (a) a dense content vector used for relevance scoring (eq. 5)
// and similarity edges, and (b) categorical feature-slot ids embedded by the
// models (paper Table I: User = {ID, gender, membership}, Query = {category,
// terms}, Item = {ID, category, terms, brand, shop}).
//
// Edges carry a relation kind: interaction (click), session (adjacent clicks
// in a session), or similarity (minHash Jaccard, weighted). Each node's
// neighbor block is sorted by (neighbor type, kind, id) so typed sub-ranges
// — needed by edge-level attention, which only compares neighbors of the
// same type — are contiguous, and every node carries an alias table over its
// (weighted) block for O(1) sampling.
//
// Storage is one node-partitioned CSR, used both as the offline build
// artifact and as the serving base of the streaming subsystem: the id-space
// is cut into fixed-span contiguous row ranges ("segments"), each an
// immutable CsrSegment with its own generation, held by shared_ptr.
//  - Copying a HeteroGraph copies segment pointers, never rows, so every
//    streaming::DynamicHeteroGraph (the primary and each engine replica)
//    shares the offline graph's segments.
//  - A fold that absorbs the delta overlay of a few hot segments rebuilds
//    only those segments (Successor); every untouched segment is shared
//    between the old and new graph. Snapshots pin the whole graph, so
//    zero-copy spans into untouched segments stay valid across any number
//    of incremental folds.
//  - Per-segment generations let caches (maintenance::HotNodeOverlayCache)
//    stamp entries with the generation of the one segment that backs a
//    node, so an incremental fold invalidates only the folded ranges.
//  - Neighbor ids are global: an edge folded into segment A may reference a
//    row of segment B (or an overlay-born node not yet folded at all).
#ifndef ZOOMER_GRAPH_HETERO_GRAPH_H_
#define ZOOMER_GRAPH_HETERO_GRAPH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/alias_table.h"

namespace zoomer {
namespace graph {

using NodeId = int64_t;

enum class NodeType : uint8_t { kUser = 0, kQuery = 1, kItem = 2 };
inline constexpr int kNumNodeTypes = 3;

enum class RelationKind : uint8_t {
  kClick = 0,       // user-query, query-item interaction edges
  kSession = 1,     // adjacent clicked items within one session
  kSimilarity = 2,  // minHash Jaccard content similarity
};
inline constexpr int kNumRelationKinds = 3;

const char* NodeTypeName(NodeType t);
const char* RelationKindName(RelationKind k);

/// One outgoing edge as seen from a node's neighbor block.
struct NeighborEntry {
  NodeId neighbor;
  float weight;
  RelationKind kind;
};

/// One immutable row range [first_node, first_node + num_rows) of the
/// graph. Self-contained (owns its arrays): rebuilding a segment never
/// touches its neighbors, and sharing one between two graphs is a
/// shared_ptr copy.
class CsrSegment {
 public:
  NodeId first_node() const { return first_node_; }
  int64_t num_rows() const { return static_cast<int64_t>(types_.size()); }
  /// Monotonic rebuild stamp: 1 for the offline build, bumped every time a
  /// fold replaces this row range. Caches key their per-node entries on it.
  uint64_t generation() const { return generation_; }
  /// Epoch this segment's rows last folded through (0 = the offline
  /// build, never folded). Overlay entries of these rows with epoch <=
  /// folded_epoch and a neighbor born at or below it are already absorbed
  /// into the rows — the per-segment replay floor crash recovery filters
  /// WAL half-edges against.
  uint64_t folded_epoch() const { return folded_epoch_; }
  int content_dim() const { return content_dim_; }
  int64_t num_half_edges() const { return static_cast<int64_t>(nbr_id_.size()); }
  int64_t num_rows_of_type(NodeType t) const {
    return type_counts_[static_cast<int>(t)];
  }

  // Row accessors take the segment-local row index in [0, num_rows()).
  NodeType row_type(int64_t r) const { return types_[r]; }
  const float* row_content(int64_t r) const {
    return contents_.data() + r * content_dim_;
  }
  std::span<const int64_t> row_slots(int64_t r) const {
    return {slot_ids_.data() + slot_offsets_[r],
            static_cast<size_t>(slot_offsets_[r + 1] - slot_offsets_[r])};
  }
  int64_t row_degree(int64_t r) const { return offsets_[r + 1] - offsets_[r]; }
  std::span<const NodeId> row_neighbor_ids(int64_t r) const {
    return {nbr_id_.data() + offsets_[r], static_cast<size_t>(row_degree(r))};
  }
  std::span<const float> row_neighbor_weights(int64_t r) const {
    return {nbr_weight_.data() + offsets_[r],
            static_cast<size_t>(row_degree(r))};
  }
  std::span<const RelationKind> row_neighbor_kinds(int64_t r) const {
    return {nbr_kind_.data() + offsets_[r],
            static_cast<size_t>(row_degree(r))};
  }
  /// [begin, end) for type `t`, relative to the *row's* neighbor block
  /// (i.e. indexes into row_neighbor_ids(r)).
  std::pair<int64_t, int64_t> row_typed_range(int64_t r, NodeType t) const {
    const int64_t base = r * (kNumNodeTypes + 1);
    return {type_offsets_[base + static_cast<int>(t)] - offsets_[r],
            type_offsets_[base + static_cast<int>(t) + 1] - offsets_[r]};
  }
  const AliasTable& row_alias(int64_t r) const { return alias_[r]; }

  size_t MemoryBytes() const;

 private:
  friend class CsrSegmentBuilder;
  // Checkpoint serializers (graph_io.h): raw-array access, so a loaded
  // segment is byte-identical to the saved one.
  friend Status SaveCsrSegment(const CsrSegment& seg, const std::string& path);
  friend StatusOr<std::shared_ptr<const CsrSegment>> LoadCsrSegment(
      const std::string& path);

  NodeId first_node_ = 0;
  uint64_t generation_ = 0;
  uint64_t folded_epoch_ = 0;
  int content_dim_ = 0;
  std::vector<NodeType> types_;
  std::array<int64_t, kNumNodeTypes> type_counts_ = {0, 0, 0};
  std::vector<float> contents_;        // num_rows * content_dim
  std::vector<int64_t> slot_ids_;
  std::vector<int64_t> slot_offsets_;  // num_rows + 1
  std::vector<int64_t> offsets_;       // num_rows + 1, segment-local
  std::vector<NodeId> nbr_id_;         // global neighbor ids
  std::vector<float> nbr_weight_;
  std::vector<RelationKind> nbr_kind_;
  std::vector<int64_t> type_offsets_;  // per row: kNumNodeTypes+1 local offsets
  std::vector<AliasTable> alias_;
};

/// Row-at-a-time builder for one CsrSegment. Rows must be added in id
/// order. AddRow is the one place the neighbor-block order is decided.
class CsrSegmentBuilder {
 public:
  /// Resolves any neighbor id to its node type (neighbors may live in other
  /// segments or in the streaming overlay).
  using TypeResolver = std::function<NodeType(NodeId)>;

  /// `folded_epoch` stamps the segment with the epoch its rows fold
  /// through (0 for the offline build) — see CsrSegment::folded_epoch().
  CsrSegmentBuilder(NodeId first_node, int64_t expected_rows, int content_dim,
                    uint64_t generation, TypeResolver type_of,
                    uint64_t folded_epoch = 0);

  /// Sizes the neighbor and slot arrays for rows still to be added, so the
  /// built segment holds no spare capacity.
  void Reserve(int64_t half_edges, int64_t slot_ids);

  /// Appends the next row. `neighbors` need not be sorted: the block is
  /// ordered by (neighbor type, kind, neighbor id), and entries that tie on
  /// all three (parallel edges) keep their input order.
  void AddRow(NodeType type, std::span<const float> content,
              std::span<const int64_t> slots,
              std::span<const NeighborEntry> neighbors);

  /// Verbatim copy of a row from an existing segment: the neighbor block is
  /// already sorted and typed, and the alias table is reused, not rebuilt.
  void CopyRow(const CsrSegment& src, int64_t src_row);

  std::shared_ptr<const CsrSegment> Build();

 private:
  CsrSegment seg_;
  TypeResolver type_of_;
  // AddRow scratch, reused across rows.
  std::vector<uint32_t> order_;
  std::vector<uint8_t> nbr_type_;
  std::vector<double> weights_;
};

/// Immutable heterogeneous graph: contiguous segments of `segment_span`
/// rows (a power of two; the last segment may be partial). Construct via
/// HeteroGraphBuilder; copies are cheap and share the segments.
class HeteroGraph {
 public:
  /// An empty graph (no nodes), segmented like a built graph of 0 nodes.
  HeteroGraph() = default;

  /// Segment span the offline build uses for `num_nodes` rows: about 16
  /// segments, never fewer than 64 rows each (a power of two).
  static int64_t AutoSegmentSpan(int64_t num_nodes);

  /// The same rows cut into segments of `span` rows (a power of two), all at
  /// generation 1 and folded epoch 0. Segments that already have that shape
  /// are shared; the others are rebuilt by verbatim row copies, so reads
  /// and draws are bit-identical to this graph's.
  HeteroGraph Repartitioned(int64_t span) const;

  /// Successor sharing this graph's segments except those in `replaced`
  /// (indexed by segment number; entries beyond the current segment count
  /// append new coverage, which must stay contiguous).
  std::shared_ptr<const HeteroGraph> Successor(
      const std::vector<std::pair<int64_t,
                                  std::shared_ptr<const CsrSegment>>>&
          replaced) const;

  /// Reassembles a graph from already-built segments (checkpoint recovery).
  /// Validates span (power of two), contiguity (segment i starts at
  /// i * span, all but the last span full rows), and a consistent
  /// content_dim across segments.
  static StatusOr<std::shared_ptr<const HeteroGraph>> FromSegments(
      int64_t span,
      std::vector<std::shared_ptr<const CsrSegment>> segments);

  int64_t segment_span() const { return span_; }
  int span_shift() const { return span_shift_; }
  int64_t num_segments() const { return static_cast<int64_t>(segments_.size()); }
  int64_t segment_of(NodeId id) const { return id >> span_shift_; }
  const CsrSegment& segment(int64_t s) const { return *segments_[s]; }
  std::shared_ptr<const CsrSegment> segment_ptr(int64_t s) const {
    return segments_[s];
  }
  /// Generation of the segment backing `id` (0 for ids beyond coverage —
  /// i.e. overlay-born nodes not yet folded).
  uint64_t generation_of(NodeId id) const {
    const int64_t s = segment_of(id);
    return (id >= 0 && s < num_segments()) ? segments_[s]->generation() : 0;
  }
  uint64_t segment_generation(int64_t s) const {
    return segments_[s]->generation();
  }

  /// The segment holding `id` and the row's segment-local index.
  std::pair<const CsrSegment*, int64_t> Locate(NodeId id) const {
    ZCHECK(id >= 0 && id < num_nodes_);
    const CsrSegment* seg = segments_[id >> span_shift_].get();
    return {seg, id - seg->first_node()};
  }

  // ---- read API (global node ids) ------------------------------------------
  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_half_edges_; }  // directed half-edges
  int64_t num_nodes_of_type(NodeType t) const {
    return type_counts_[static_cast<int>(t)];
  }
  int content_dim() const { return content_dim_; }

  NodeType node_type(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_type(r);
  }
  /// Dense content vector (content_dim floats).
  const float* content(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_content(r);
  }
  /// Categorical feature-slot ids of a node.
  std::span<const int64_t> slots(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_slots(r);
  }
  int64_t degree(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_degree(r);
  }
  /// Full neighbor block of a node, sorted by (neighbor type, kind, id).
  std::span<const NodeId> neighbor_ids(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_ids(r);
  }
  std::span<const float> neighbor_weights(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_weights(r);
  }
  std::span<const RelationKind> neighbor_kinds(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_kinds(r);
  }
  /// Neighbor ids of a given type (a contiguous sub-range of the block).
  std::span<const NodeId> NeighborsOfType(NodeId id, NodeType t) const {
    const auto [seg, r] = Locate(id);
    const auto [b, e] = seg->row_typed_range(r, t);
    return seg->row_neighbor_ids(r).subspan(static_cast<size_t>(b),
                                            static_cast<size_t>(e - b));
  }

  /// O(1) weighted neighbor draw via the per-node alias table.
  /// Returns -1 for isolated nodes.
  NodeId SampleNeighbor(NodeId id, Rng* rng) const {
    const auto [seg, r] = Locate(id);
    if (seg->row_degree(r) == 0) return -1;
    const size_t k = seg->row_alias(r).Sample(rng);
    return seg->row_neighbor_ids(r)[k];
  }

  /// Batched weighted draws: k draws (with replacement) per node, written
  /// row-major into `out` (nodes.size()*k entries; isolated nodes leave -1
  /// rows). Bit-identical to k SampleNeighbor calls per node in order, but
  /// software-prefetches the next node's row and alias table one node
  /// ahead and draws through AliasTable::SampleBatch.
  void SampleManyNeighbors(std::span<const NodeId> nodes, int k, Rng* rng,
                           std::vector<NodeId>* out) const;

  /// Approximate resident bytes of the segments (rows and alias tables).
  size_t MemoryBytes() const;
  std::string DebugString() const;

 private:
  friend class HeteroGraphBuilder;

  HeteroGraph(int64_t span, int content_dim,
              std::vector<std::shared_ptr<const CsrSegment>> segments);

  int64_t span_ = 64;
  int span_shift_ = 6;
  int content_dim_ = 0;
  int64_t num_nodes_ = 0;
  int64_t num_half_edges_ = 0;
  std::array<int64_t, kNumNodeTypes> type_counts_ = {0, 0, 0};
  std::vector<std::shared_ptr<const CsrSegment>> segments_;
};

/// Mutable builder. Nodes first, then edges, then Build().
class HeteroGraphBuilder {
 public:
  explicit HeteroGraphBuilder(int content_dim) : content_dim_(content_dim) {}

  /// Adds a node and returns its id. content must have content_dim entries.
  NodeId AddNode(NodeType type, std::vector<float> content,
                 std::vector<int64_t> slots);

  /// Adds an undirected edge (stored as two half-edges). Self-loops,
  /// invalid ids, and negative or non-finite weights are rejected.
  Status AddEdge(NodeId a, NodeId b, RelationKind kind, float weight = 1.0f);

  int64_t num_nodes() const { return static_cast<int64_t>(types_.size()); }
  int64_t num_edges_added() const { return static_cast<int64_t>(edges_.size()); }

  /// Finalizes into an immutable HeteroGraph segmented at
  /// HeteroGraph::AutoSegmentSpan(num_nodes()). The builder is left empty.
  HeteroGraph Build();

 private:
  struct Edge {
    NodeId a, b;
    RelationKind kind;
    float weight;
  };

  int content_dim_;
  std::vector<NodeType> types_;
  std::vector<float> contents_;
  std::vector<int64_t> slot_ids_;
  std::vector<int64_t> slot_offsets_{0};
  std::vector<Edge> edges_;
};

}  // namespace graph
}  // namespace zoomer

#endif  // ZOOMER_GRAPH_HETERO_GRAPH_H_
