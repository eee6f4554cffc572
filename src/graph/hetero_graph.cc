#include "graph/hetero_graph.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace zoomer {
namespace graph {

const char* NodeTypeName(NodeType t) {
  switch (t) {
    case NodeType::kUser: return "user";
    case NodeType::kQuery: return "query";
    case NodeType::kItem: return "item";
  }
  return "?";
}

const char* RelationKindName(RelationKind k) {
  switch (k) {
    case RelationKind::kClick: return "click";
    case RelationKind::kSession: return "session";
    case RelationKind::kSimilarity: return "similarity";
  }
  return "?";
}

namespace {

int SpanShift(int64_t span) {
  ZCHECK(span > 0 && (span & (span - 1)) == 0)
      << "segment span must be a power of two";
  int shift = 0;
  while ((int64_t{1} << shift) < span) ++shift;
  return shift;
}

}  // namespace

// ---- CsrSegment / CsrSegmentBuilder ----------------------------------------

size_t CsrSegment::MemoryBytes() const {
  size_t bytes = 0;
  bytes += types_.size() * sizeof(NodeType);
  bytes += contents_.size() * sizeof(float);
  bytes += slot_ids_.size() * sizeof(int64_t);
  bytes += slot_offsets_.size() * sizeof(int64_t);
  bytes += offsets_.size() * sizeof(int64_t);
  bytes += nbr_id_.size() * sizeof(NodeId);
  bytes += nbr_weight_.size() * sizeof(float);
  bytes += nbr_kind_.size() * sizeof(RelationKind);
  bytes += type_offsets_.size() * sizeof(int64_t);
  for (const auto& a : alias_) bytes += a.MemoryBytes();
  return bytes;
}

CsrSegmentBuilder::CsrSegmentBuilder(NodeId first_node, int64_t expected_rows,
                                     int content_dim, uint64_t generation,
                                     TypeResolver type_of,
                                     uint64_t folded_epoch)
    : type_of_(std::move(type_of)) {
  seg_.first_node_ = first_node;
  seg_.generation_ = generation;
  seg_.folded_epoch_ = folded_epoch;
  seg_.content_dim_ = content_dim;
  seg_.types_.reserve(expected_rows);
  seg_.contents_.reserve(expected_rows * content_dim);
  seg_.slot_offsets_.reserve(expected_rows + 1);
  seg_.offsets_.reserve(expected_rows + 1);
  seg_.type_offsets_.reserve(expected_rows * (kNumNodeTypes + 1));
  seg_.alias_.reserve(expected_rows);
  seg_.slot_offsets_.push_back(0);
  seg_.offsets_.push_back(0);
}

void CsrSegmentBuilder::Reserve(int64_t half_edges, int64_t slot_ids) {
  seg_.nbr_id_.reserve(half_edges);
  seg_.nbr_weight_.reserve(half_edges);
  seg_.nbr_kind_.reserve(half_edges);
  seg_.slot_ids_.reserve(slot_ids);
}

void CsrSegmentBuilder::AddRow(NodeType type, std::span<const float> content,
                               std::span<const int64_t> slots,
                               std::span<const NeighborEntry> neighbors) {
  ZCHECK_EQ(static_cast<int>(content.size()), seg_.content_dim_)
      << "row content dim mismatch";
  seg_.types_.push_back(type);
  ++seg_.type_counts_[static_cast<int>(type)];
  seg_.contents_.insert(seg_.contents_.end(), content.begin(), content.end());
  seg_.slot_ids_.insert(seg_.slot_ids_.end(), slots.begin(), slots.end());
  seg_.slot_offsets_.push_back(static_cast<int64_t>(seg_.slot_ids_.size()));

  // The block order contract of every row, offline or folded: sort by
  // (neighbor type, kind, neighbor id), stable so parallel edges keep their
  // input order. The order — and with it typed sub-ranges, alias layout,
  // and every downstream draw sequence — is therefore deterministic however
  // the row was assembled (offline build, full fold, or a chain of
  // incremental segment folds). Each neighbor's type is resolved once.
  const size_t deg = neighbors.size();
  nbr_type_.resize(deg);
  for (size_t i = 0; i < deg; ++i) {
    nbr_type_[i] = static_cast<uint8_t>(type_of_(neighbors[i].neighbor));
  }
  order_.resize(deg);
  std::iota(order_.begin(), order_.end(), uint32_t{0});
  std::stable_sort(order_.begin(), order_.end(), [&](uint32_t x, uint32_t y) {
    if (nbr_type_[x] != nbr_type_[y]) return nbr_type_[x] < nbr_type_[y];
    if (neighbors[x].kind != neighbors[y].kind) {
      return neighbors[x].kind < neighbors[y].kind;
    }
    return neighbors[x].neighbor < neighbors[y].neighbor;
  });

  const int64_t block_begin = static_cast<int64_t>(seg_.nbr_id_.size());
  weights_.clear();
  for (const uint32_t i : order_) {
    seg_.nbr_id_.push_back(neighbors[i].neighbor);
    seg_.nbr_weight_.push_back(neighbors[i].weight);
    seg_.nbr_kind_.push_back(neighbors[i].kind);
    weights_.push_back(neighbors[i].weight);
  }
  seg_.offsets_.push_back(static_cast<int64_t>(seg_.nbr_id_.size()));

  // Typed sub-offsets (segment-local) over the sorted block.
  size_t pos = 0;
  for (int t = 0; t < kNumNodeTypes; ++t) {
    seg_.type_offsets_.push_back(block_begin + static_cast<int64_t>(pos));
    while (pos < deg && nbr_type_[order_[pos]] == t) ++pos;
  }
  seg_.type_offsets_.push_back(block_begin + static_cast<int64_t>(pos));

  seg_.alias_.emplace_back();
  if (deg > 0) seg_.alias_.back().Build(weights_);
}

void CsrSegmentBuilder::CopyRow(const CsrSegment& src, int64_t src_row) {
  ZCHECK_EQ(src.content_dim(), seg_.content_dim_);
  seg_.types_.push_back(src.row_type(src_row));
  ++seg_.type_counts_[static_cast<int>(src.row_type(src_row))];
  const float* c = src.row_content(src_row);
  seg_.contents_.insert(seg_.contents_.end(), c, c + seg_.content_dim_);
  const auto slots = src.row_slots(src_row);
  seg_.slot_ids_.insert(seg_.slot_ids_.end(), slots.begin(), slots.end());
  seg_.slot_offsets_.push_back(static_cast<int64_t>(seg_.slot_ids_.size()));

  const int64_t block_begin = static_cast<int64_t>(seg_.nbr_id_.size());
  const auto ids = src.row_neighbor_ids(src_row);
  const auto weights = src.row_neighbor_weights(src_row);
  const auto kinds = src.row_neighbor_kinds(src_row);
  seg_.nbr_id_.insert(seg_.nbr_id_.end(), ids.begin(), ids.end());
  seg_.nbr_weight_.insert(seg_.nbr_weight_.end(), weights.begin(),
                          weights.end());
  seg_.nbr_kind_.insert(seg_.nbr_kind_.end(), kinds.begin(), kinds.end());
  seg_.offsets_.push_back(static_cast<int64_t>(seg_.nbr_id_.size()));

  const int64_t src_block = src.offsets_[src_row];
  for (int t = 0; t <= kNumNodeTypes; ++t) {
    seg_.type_offsets_.push_back(
        block_begin +
        (src.type_offsets_[src_row * (kNumNodeTypes + 1) + t] - src_block));
  }
  seg_.alias_.push_back(src.row_alias(src_row));
}

std::shared_ptr<const CsrSegment> CsrSegmentBuilder::Build() {
  return std::make_shared<const CsrSegment>(std::move(seg_));
}

// ---- HeteroGraph -------------------------------------------------------------

HeteroGraph::HeteroGraph(
    int64_t span, int content_dim,
    std::vector<std::shared_ptr<const CsrSegment>> segments)
    : span_(span), span_shift_(SpanShift(span)), content_dim_(content_dim),
      segments_(std::move(segments)) {
  for (const auto& seg : segments_) {
    ZCHECK_EQ(seg->first_node(), num_nodes_) << "segments must be contiguous";
    num_nodes_ += seg->num_rows();
    num_half_edges_ += seg->num_half_edges();
    for (int t = 0; t < kNumNodeTypes; ++t) {
      type_counts_[t] += seg->num_rows_of_type(static_cast<NodeType>(t));
    }
  }
}

int64_t HeteroGraph::AutoSegmentSpan(int64_t num_nodes) {
  // Small graphs degenerate to one segment (incremental == full fold).
  const int64_t target = std::max<int64_t>(64, num_nodes / 16);
  int64_t span = 64;
  while (span < target) span <<= 1;
  return span;
}

HeteroGraph HeteroGraph::Repartitioned(int64_t span) const {
  SpanShift(span);  // validates
  std::vector<std::shared_ptr<const CsrSegment>> out;
  for (NodeId lo = 0; lo < num_nodes_; lo += span) {
    const std::shared_ptr<const CsrSegment>& same = segments_[segment_of(lo)];
    if (span == span_ && same->generation() == 1 &&
        same->folded_epoch() == 0) {
      out.push_back(same);
      continue;
    }
    const NodeId hi = std::min<NodeId>(lo + span, num_nodes_);
    CsrSegmentBuilder builder(lo, hi - lo, content_dim_, /*generation=*/1,
                              /*type_of=*/nullptr);  // CopyRow only
    for (NodeId v = lo; v < hi; ++v) {
      const auto [seg, r] = Locate(v);
      builder.CopyRow(*seg, r);
    }
    out.push_back(builder.Build());
  }
  return HeteroGraph(span, content_dim_, std::move(out));
}

std::shared_ptr<const HeteroGraph> HeteroGraph::Successor(
    const std::vector<std::pair<int64_t, std::shared_ptr<const CsrSegment>>>&
        replaced) const {
  std::vector<std::shared_ptr<const CsrSegment>> segs = segments_;
  for (const auto& [s, seg] : replaced) {
    ZCHECK(seg != nullptr);
    ZCHECK_EQ(seg->first_node(), s * span_);
    if (s < static_cast<int64_t>(segs.size())) {
      segs[s] = seg;
    } else {
      // Appended coverage must stay contiguous (the fold includes every
      // frontier segment up to its bound, in order).
      ZCHECK_EQ(s, static_cast<int64_t>(segs.size()))
          << "segment append leaves a coverage gap";
      segs.push_back(seg);
    }
  }
  // All but the last segment must span the full range, or segment_of()
  // indexing breaks.
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    ZCHECK_EQ(segs[i]->num_rows(), span_)
        << "only the frontier segment may be partial";
  }
  return std::shared_ptr<const HeteroGraph>(
      new HeteroGraph(span_, content_dim_, std::move(segs)));
}

StatusOr<std::shared_ptr<const HeteroGraph>> HeteroGraph::FromSegments(
    int64_t span, std::vector<std::shared_ptr<const CsrSegment>> segments) {
  if (span <= 0 || (span & (span - 1)) != 0) {
    return Status::InvalidArgument("segment span must be a power of two");
  }
  if (segments.empty()) {
    return Status::InvalidArgument("cannot assemble a CSR from 0 segments");
  }
  const int content_dim = segments.front()->content_dim();
  int64_t expect_first = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    const CsrSegment& seg = *segments[s];
    if (seg.first_node() != expect_first) {
      return Status::InvalidArgument("segments leave a row-coverage gap");
    }
    if (s + 1 < segments.size() && seg.num_rows() != span) {
      return Status::InvalidArgument(
          "only the frontier segment may be partial");
    }
    if (seg.num_rows() <= 0 || seg.num_rows() > span) {
      return Status::InvalidArgument("segment row count out of range");
    }
    if (seg.content_dim() != content_dim) {
      return Status::InvalidArgument("segments disagree on content_dim");
    }
    expect_first += seg.num_rows();
  }
  return std::shared_ptr<const HeteroGraph>(
      new HeteroGraph(span, content_dim, std::move(segments)));
}

void HeteroGraph::SampleManyNeighbors(std::span<const NodeId> nodes, int k,
                                      Rng* rng,
                                      std::vector<NodeId>* out) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  out->assign(nodes.size() * kk, NodeId{-1});
  if (k <= 0) return;
  std::vector<uint32_t> pos(kk);
  for (size_t r = 0; r < nodes.size(); ++r) {
    if (r + 1 < nodes.size()) {
      // Resolve the next node's segment one iteration early and touch its
      // row start + alias header so those lines load while this node draws.
      const auto [nseg, nrow] = Locate(nodes[r + 1]);
      __builtin_prefetch(nseg->row_neighbor_ids(nrow).data(), /*rw=*/0,
                         /*locality=*/1);
      __builtin_prefetch(&nseg->row_alias(nrow), /*rw=*/0, /*locality=*/1);
    }
    const auto [seg, row] = Locate(nodes[r]);
    if (seg->row_degree(row) == 0) continue;
    seg->row_alias(row).SampleBatch(rng, {pos.data(), kk});
    NodeId* dst = out->data() + r * kk;
    const NodeId* ids = seg->row_neighbor_ids(row).data();
    for (size_t j = 0; j < kk; ++j) dst[j] = ids[pos[j]];
  }
}

size_t HeteroGraph::MemoryBytes() const {
  size_t bytes = segments_.size() * sizeof(std::shared_ptr<const CsrSegment>);
  for (const auto& seg : segments_) bytes += seg->MemoryBytes();
  return bytes;
}

std::string HeteroGraph::DebugString() const {
  std::ostringstream os;
  os << "HeteroGraph{nodes=" << num_nodes() << " (user="
     << num_nodes_of_type(NodeType::kUser)
     << ", query=" << num_nodes_of_type(NodeType::kQuery)
     << ", item=" << num_nodes_of_type(NodeType::kItem)
     << "), half_edges=" << num_edges() << ", content_dim=" << content_dim_
     << ", segments=" << num_segments() << " x " << span_
     << " rows, bytes=" << MemoryBytes() << "}";
  return os.str();
}

// ---- HeteroGraphBuilder ------------------------------------------------------

NodeId HeteroGraphBuilder::AddNode(NodeType type, std::vector<float> content,
                                   std::vector<int64_t> slots) {
  ZCHECK_EQ(static_cast<int>(content.size()), content_dim_)
      << "content dim mismatch";
  const NodeId id = static_cast<NodeId>(types_.size());
  types_.push_back(type);
  contents_.insert(contents_.end(), content.begin(), content.end());
  slot_ids_.insert(slot_ids_.end(), slots.begin(), slots.end());
  slot_offsets_.push_back(static_cast<int64_t>(slot_ids_.size()));
  return id;
}

Status HeteroGraphBuilder::AddEdge(NodeId a, NodeId b, RelationKind kind,
                                   float weight) {
  const auto n = static_cast<NodeId>(types_.size());
  if (a < 0 || a >= n || b < 0 || b >= n) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  if (!(weight >= 0.0f) || weight > 1e30f) {
    return Status::InvalidArgument(
        "edge weight must be finite and non-negative");
  }
  edges_.push_back({a, b, kind, weight});
  return Status::OK();
}

HeteroGraph HeteroGraphBuilder::Build() {
  const int64_t n = num_nodes();
  // Bucket the half-edges by row, each row in AddEdge order (which the
  // stable block sort keeps for parallel edges).
  std::vector<int64_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.a + 1];
    ++offsets[e.b + 1];
  }
  for (int64_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<NeighborEntry> half(static_cast<size_t>(offsets[n]));
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges_) {
    half[cursor[e.a]++] = {e.b, e.weight, e.kind};
    half[cursor[e.b]++] = {e.a, e.weight, e.kind};
  }
  std::vector<Edge>().swap(edges_);

  const int64_t span = HeteroGraph::AutoSegmentSpan(n);
  std::vector<std::shared_ptr<const CsrSegment>> segments;
  const auto type_of = [this](NodeId id) { return types_[id]; };
  for (NodeId lo = 0; lo < n; lo += span) {
    const NodeId hi = std::min<NodeId>(lo + span, n);
    CsrSegmentBuilder builder(lo, hi - lo, content_dim_, /*generation=*/1,
                              type_of);
    builder.Reserve(offsets[hi] - offsets[lo],
                    slot_offsets_[hi] - slot_offsets_[lo]);
    for (NodeId v = lo; v < hi; ++v) {
      builder.AddRow(
          types_[v],
          {contents_.data() + v * content_dim_,
           static_cast<size_t>(content_dim_)},
          {slot_ids_.data() + slot_offsets_[v],
           static_cast<size_t>(slot_offsets_[v + 1] - slot_offsets_[v])},
          {half.data() + offsets[v],
           static_cast<size_t>(offsets[v + 1] - offsets[v])});
    }
    segments.push_back(builder.Build());
  }
  HeteroGraph g(span, content_dim_, std::move(segments));
  types_.clear();
  contents_.clear();
  slot_ids_.clear();
  slot_offsets_.assign(1, 0);
  return g;
}

}  // namespace graph
}  // namespace zoomer
