// Tests for the streaming graph-update subsystem: delta-log epochs,
// delta-overlay sampling correctness against exact weights, epoch-snapshot
// isolation under concurrent ingest, the cross-shard watermark epoch,
// compaction (including mid-ingest quiescence), GraphView base+delta parity
// against a compacted CSR, cache invalidation with fill dedup, end-to-end
// freshness at the serving layer, and training-time freshness through the
// dynamic GraphView.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>

#include "common/random.h"
#include "core/roi_sampler.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "serving/neighbor_cache.h"
#include "serving/online_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"
#include "streaming/training_freshness.h"

namespace zoomer {
namespace streaming {
namespace {

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;

constexpr int kDim = 4;

/// user 0, query 1, items 2..2+num_items-1; a single user-query click edge
/// plus optional weighted query-item edges.
HeteroGraph MakeTinyGraph(int num_items,
                          const std::vector<float>& query_item_weights = {}) {
  HeteroGraphBuilder b(kDim);
  b.AddNode(NodeType::kUser, std::vector<float>(kDim, 0.1f), {0});
  b.AddNode(NodeType::kQuery, std::vector<float>(kDim, 0.2f), {1});
  for (int i = 0; i < num_items; ++i) {
    b.AddNode(NodeType::kItem, std::vector<float>(kDim, 0.3f), {2});
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  for (size_t i = 0; i < query_item_weights.size(); ++i) {
    EXPECT_TRUE(b.AddEdge(1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                          query_item_weights[i])
                    .ok());
  }
  return b.Build();
}

/// When `track` is set, the epoch is marked pending on that graph atomically
/// with issuance (as the ingest pipeline does), enabling watermark pinning.
DeltaBatch MakeBatch(GraphDeltaLog* log, int shard,
                     std::vector<EdgeEvent> events,
                     DynamicHeteroGraph* track = nullptr) {
  DeltaBatch batch;
  batch.events = std::move(events);
  batch.epoch =
      track == nullptr
          ? log->Append(shard, batch.events)
          : log->Append(shard, batch.events,
                        [track](uint64_t e) { track->NoteEpochIssued(e); });
  return batch;
}

NodeEvent MakeItemEvent(float fill = 0.4f, int64_t timestamp = 0) {
  NodeEvent ev;
  ev.type = NodeType::kItem;
  ev.content = std::vector<float>(kDim, fill);
  ev.slots = {7, 8};
  ev.timestamp = timestamp;
  return ev;
}

/// Node(+edge) batch through the log: ids allocated by `graph` under the
/// epoch lock, -1 edge placeholders resolved to the first node's id.
DeltaBatch MakeNodeBatch(GraphDeltaLog* log, int shard,
                         DynamicHeteroGraph* graph,
                         std::vector<NodeEvent> nodes,
                         std::vector<EdgeEvent> edges = {}) {
  DeltaBatch batch;
  auto epoch = log->AppendWithNodes(
      shard, &nodes, &edges,
      [graph](const std::vector<NodeEvent>& evs, uint64_t e) {
        return graph->AllocateNodeIds(evs, e);
      },
      [graph](uint64_t e) { graph->NoteEpochIssued(e); });
  ZCHECK(epoch.ok()) << epoch.status().ToString();
  batch.epoch = epoch.value();
  batch.node_events = std::move(nodes);
  batch.events = std::move(edges);
  return batch;
}

/// Like MakeTinyGraph but with distinct random content vectors (so focal
/// relevance scores are tie-free) and weighted base query-item edges on the
/// first half of the items.
HeteroGraph MakeContentGraph(int num_items, uint64_t seed) {
  Rng rng(seed);
  HeteroGraphBuilder b(kDim);
  auto content = [&rng] {
    std::vector<float> c(kDim);
    for (auto& x : c) x = 0.05f + rng.UniformFloat();
    return c;
  };
  b.AddNode(NodeType::kUser, content(), {0});
  b.AddNode(NodeType::kQuery, content(), {1});
  for (int i = 0; i < num_items; ++i) {
    b.AddNode(NodeType::kItem, content(), {2});
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  for (int i = 0; i < num_items / 2; ++i) {
    EXPECT_TRUE(b.AddEdge(1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                          0.5f + 3.0f * rng.UniformFloat())
                    .ok());
  }
  return b.Build();
}

// --- GraphDeltaLog --------------------------------------------------------

TEST(GraphDeltaLogTest, EpochsMonotonicAcrossShards) {
  GraphDeltaLog log(3);
  EXPECT_EQ(log.last_epoch(), 0u);
  const uint64_t e1 = log.Append(0, {{0, 1, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e2 = log.Append(2, {{0, 2, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e3 = log.Append(1, {{1, 2, RelationKind::kSession, 1.0f, 0}});
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  EXPECT_EQ(log.last_epoch(), e3);
  auto stats = log.Stats();
  EXPECT_EQ(stats.total_batches, 3);
  EXPECT_EQ(stats.total_events, 3);
}

TEST(GraphDeltaLogTest, ReadSinceAndTruncate) {
  GraphDeltaLog log(2);
  const uint64_t e1 = log.Append(0, {{0, 1, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e2 = log.Append(1, {{0, 2, RelationKind::kClick, 1.0f, 0},
                                     {1, 2, RelationKind::kClick, 1.0f, 0}});
  auto all = log.ReadSince(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].epoch, e1);  // epoch-sorted across shards
  EXPECT_EQ(all[1].epoch, e2);
  auto tail = log.ReadSince(e1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].epoch, e2);
  EXPECT_EQ(tail[0].events.size(), 2u);

  log.Truncate(e1);
  EXPECT_EQ(log.ReadSince(0).size(), 1u);
  EXPECT_EQ(log.Stats().total_events, 2);
  EXPECT_EQ(log.last_epoch(), e2);  // truncation never rewinds epochs
}

TEST(GraphDeltaLogTest, BoundedReadSinceExcludesNewerEpochs) {
  GraphDeltaLog log(1);
  const uint64_t e1 = log.Append(0, {{0, 1, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e2 = log.Append(0, {{0, 2, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e3 = log.Append(0, {{1, 2, RelationKind::kClick, 1.0f, 0}});
  auto window = log.ReadSince(e1, e2);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].epoch, e2);
  EXPECT_TRUE(log.ReadSince(e3, e3).empty());
  EXPECT_EQ(log.ReadSince(0, e3).size(), 3u);
}

TEST(GraphDeltaLogTest, ConsumerCursorsPinTruncation) {
  // A registered replay consumer (a replica's apply cursor) clamps
  // Truncate: its unconsumed tail survives however far compaction folded —
  // the property ReviveReplica's log replay depends on.
  GraphDeltaLog log(1);
  const uint64_t e1 = log.Append(0, {{0, 1, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e2 = log.Append(0, {{0, 2, RelationKind::kClick, 1.0f, 0}});
  const uint64_t e3 = log.Append(0, {{1, 2, RelationKind::kClick, 1.0f, 0}});

  EXPECT_EQ(log.MinConsumerEpoch(), UINT64_MAX);  // no consumer: no floor
  const int c = log.RegisterConsumer(e1);
  EXPECT_EQ(log.ConsumerCursor(c), e1);
  EXPECT_EQ(log.MinConsumerEpoch(), e1);

  log.Truncate(e3);  // clamped to the consumer's cursor e1
  auto remaining = log.ReadSince(0);
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].epoch, e2);
  EXPECT_EQ(remaining[1].epoch, e3);

  log.AdvanceConsumer(c, e2);
  log.AdvanceConsumer(c, e1);  // monotone: lower values are ignored
  EXPECT_EQ(log.ConsumerCursor(c), e2);
  log.Truncate(e3);
  remaining = log.ReadSince(0);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].epoch, e3);

  // Unregistering releases the pin entirely.
  log.UnregisterConsumer(c);
  log.Truncate(e3);
  EXPECT_TRUE(log.ReadSince(0).empty());
}

// --- DynamicHeteroGraph ---------------------------------------------------

TEST(DynamicGraphTest, ApplyBatchValidation) {
  HeteroGraph g = MakeTinyGraph(3);
  DynamicHeteroGraph dyn(&g);
  EXPECT_FALSE(dyn.ApplyBatch({0, {{0, 1, RelationKind::kClick, 1.0f, 0}}, {}})
                   .ok());  // missing epoch
  EXPECT_FALSE(
      dyn.ApplyBatch({1, {{0, 99, RelationKind::kClick, 1.0f, 0}}, {}}).ok());
  EXPECT_FALSE(
      dyn.ApplyBatch({1, {{2, 2, RelationKind::kClick, 1.0f, 0}}, {}}).ok());
  EXPECT_FALSE(
      dyn.ApplyBatch({1, {{0, 1, RelationKind::kClick, -1.0f, 0}}, {}}).ok());
  EXPECT_EQ(dyn.epoch(), 0u);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
}

TEST(DynamicGraphTest, SamplingMatchesExactWeights) {
  // Base: query 1 -> item 2 (w=1), item 3 (w=3). Delta: item 4 (w=4) and
  // +2 more weight on item 3. Exact neighbor distribution for node 1
  // (ignoring the user edge by sampling node-1 draws and discarding none):
  //   user 0: 1/11, item 2: 1/11, item 3: 5/11, item 4: 4/11.
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 3.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 4.0f, 0},
                                {1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.Degree(1), 5);  // 3 base half-edges + 2 delta entries
  EXPECT_NEAR(snap.TotalWeight(1), 11.0, 1e-9);

  Rng rng(17);
  const int draws = 60000;
  std::map<NodeId, int> counts;
  for (int i = 0; i < draws; ++i) ++counts[snap.SampleNeighbor(1, &rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 1.0 / 11, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 1.0 / 11, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(draws), 5.0 / 11, 0.015);
  EXPECT_NEAR(counts[4] / static_cast<double>(draws), 4.0 / 11, 0.015);

  // Single-lock batched draws land on the same support, deduplicated.
  auto distinct = snap.SampleDistinctNeighbors(1, 10, &rng);
  EXPECT_GE(distinct.size(), 3u);  // 4 distinct neighbors, bounded retries
  for (NodeId nb : distinct) {
    EXPECT_TRUE(nb == 0 || nb == 2 || nb == 3 || nb == 4);
  }

  // Merged view coalesces the +2 into the base item-3 edge.
  std::vector<graph::NeighborEntry> merged;
  snap.Neighbors(1, &merged);
  ASSERT_EQ(merged.size(), 4u);
  for (const auto& e : merged) {
    if (e.neighbor == 3) {
      EXPECT_FLOAT_EQ(e.weight, 5.0f);
    }
    if (e.neighbor == 4) {
      EXPECT_FLOAT_EQ(e.weight, 4.0f);
    }
  }
}

TEST(DynamicGraphTest, UntouchedNodesSampleBasePath) {
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 1.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{0, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  // Node 3's neighborhood is untouched: identical to the base CSR.
  EXPECT_FALSE(snap.HasDelta(3));
  EXPECT_EQ(snap.Degree(3), g.degree(3));
  Rng rng(5);
  EXPECT_EQ(snap.SampleNeighbor(3, &rng), 1);  // only neighbor is query 1
}

TEST(DynamicGraphTest, EpochSnapshotIsolation) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 5.0f, 0}}))
          .ok());
  auto old_snap = dyn.MakeSnapshot();
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 100.0f, 0}}))
          .ok());
  auto new_snap = dyn.MakeSnapshot();

  // The old snapshot never sees item 3 despite its overwhelming weight.
  EXPECT_EQ(old_snap.Degree(1), 2);  // base user edge + delta item 2
  EXPECT_EQ(new_snap.Degree(1), 3);
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE(old_snap.SampleNeighbor(1, &rng), 3);
  }
  int hit3 = 0;
  for (int i = 0; i < 2000; ++i) hit3 += new_snap.SampleNeighbor(1, &rng) == 3;
  EXPECT_GT(hit3, 1500);  // 100/106 of the mass
}

TEST(DynamicGraphTest, SnapshotStableUnderConcurrentIngest) {
  HeteroGraph g = MakeTinyGraph(50);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> applied{0};
  std::thread writer([&] {
    Rng rng(7);
    while (!stop.load()) {
      const NodeId item = 2 + static_cast<NodeId>(rng.Uniform(50));
      Status st = dyn.ApplyBatch(
          MakeBatch(&log, 0, {{1, item, RelationKind::kClick, 1.0f, 0}}));
      ASSERT_TRUE(st.ok());
      applied.fetch_add(1);
    }
  });
  // Each snapshot's view of node 1 must not change while the writer keeps
  // appending: degree and total weight are re-read many times per snapshot.
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    // On single-core machines, make sure the writer actually interleaves
    // with the snapshot reads instead of starving behind this loop.
    const int64_t before = applied.load();
    for (int spin = 0; spin < 1000 && applied.load() == before; ++spin) {
      std::this_thread::yield();
    }
    auto snap = dyn.MakeSnapshot();
    const int64_t deg = snap.Degree(1);
    const double w = snap.TotalWeight(1);
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(snap.Degree(1), deg);
      ASSERT_DOUBLE_EQ(snap.TotalWeight(1), w);
      ASSERT_NE(snap.SampleNeighbor(1, &rng), -1);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(applied.load(), 0);
  EXPECT_GT(dyn.num_delta_entries(), 0);
}

TEST(DynamicGraphTest, SampleManyNeighborsMatchesLoopAcrossBaseAndDelta) {
  // Items 2..9; base query->item edges on 2,3,4. Deltas touch 1, 0, 6.
  // The batch mixes untouched base rows, delta rows, repeats, and an
  // isolated node — under one seed it must be bit-identical to the loop.
  HeteroGraph g = MakeTinyGraph(8, {1.0f, 3.0f, 0.5f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 6, RelationKind::kClick, 4.0f, 0},
                                        {1, 4, RelationKind::kClick, 2.0f, 0},
                                        {0, 5, RelationKind::kClick, 1.5f, 0}}))
                  .ok());
  auto snap = dyn.MakeSnapshot();
  const std::vector<NodeId> nodes = {1, 3, 0, 1, 2, 9};
  const int k = 5;
  Rng batched(907), looped(907);
  std::vector<NodeId> got;
  snap.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &batched, &got);
  ASSERT_EQ(got.size(), nodes.size() * k);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(got[i * k + j], snap.SampleNeighbor(nodes[i], &looped))
          << "node " << nodes[i] << " draw " << j;
    }
  }
  EXPECT_EQ(batched.NextUint64(), looped.NextUint64());
  for (int j = 0; j < k; ++j) EXPECT_EQ(got[5 * k + j], -1);  // item 9
}

TEST(DynamicGraphTest, SampleManyNeighborsEmpiricalMatchesExactWeights) {
  // Same exact distribution as SamplingMatchesExactWeights, drawn through
  // the batched overlay path: user 0: 1/11, item 2: 1/11, item 3: 5/11,
  // item 4: 4/11.
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 3.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 4.0f, 0},
                                {1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  Rng rng(171);
  const int draws = 60000;
  const NodeId node = 1;
  std::vector<NodeId> out;
  snap.SampleManyNeighbors({&node, 1}, draws, &rng, &out);
  std::map<NodeId, int> counts;
  for (NodeId nb : out) ++counts[nb];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 1.0 / 11, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 1.0 / 11, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(draws), 5.0 / 11, 0.015);
  EXPECT_NEAR(counts[4] / static_cast<double>(draws), 4.0 / 11, 0.015);
}

TEST(DynamicGraphTest, SampleManyNeighborsMatchesLoopAcrossMidBatchFold) {
  // An incremental fold between draws changes what a pre-fold snapshot can
  // see (folded rows keep their pinned base but lose overlay visibility —
  // the documented contract), so the invariant is not stability: it is
  // that batched and single draws degrade IDENTICALLY. On one snapshot,
  // batch-vs-loop must stay bit-identical both before and after a fold
  // lands between the two passes.
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  HeteroGraph g = MakeTinyGraph(40, {1.0f, 2.0f, 3.0f, 0.5f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opts);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        dyn.ApplyBatch(MakeBatch(&log, 0,
                                 {{1, 2 + static_cast<NodeId>(i),
                                   RelationKind::kClick, 1.0f + i, 0}}))
            .ok());
  }
  auto snap = dyn.MakeSnapshot();
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < dyn.num_nodes_allocated(); ++v) nodes.push_back(v);
  auto expect_batch_matches_loop = [&](uint64_t seed) {
    Rng batched(seed), looped(seed);
    std::vector<NodeId> got;
    snap.SampleManyNeighbors({nodes.data(), nodes.size()}, 4, &batched, &got);
    ASSERT_EQ(got.size(), nodes.size() * 4);
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (int j = 0; j < 4; ++j) {
        ASSERT_EQ(got[i * 4 + j], snap.SampleNeighbor(nodes[i], &looped))
            << "node " << nodes[i] << " draw " << j << " seed " << seed;
      }
    }
  };
  expect_batch_matches_loop(77);
  ASSERT_TRUE(dyn.CompactSegments({0, 1}).ok());
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 30, RelationKind::kClick, 50.0f, 0}}))
          .ok());
  expect_batch_matches_loop(78);
  // A fresh snapshot sees the folded edges plus the post-fold delta.
  auto snap2 = dyn.MakeSnapshot();
  EXPECT_GT(snap2.Degree(1), snap.Degree(1));
}

/// The draws every snapshot entry point makes under one seed: the batch, the
/// single-draw loop and the distinct draws, each with the Rng word it leaves
/// next (so a change in Rng consumption shows even when the ids agree).
struct DrawRecord {
  std::vector<NodeId> many, loop;
  std::vector<std::vector<NodeId>> distinct;  // one list per node
  uint64_t many_next = 0, loop_next = 0, distinct_next = 0;
};

DrawRecord RecordDraws(const DynamicHeteroGraph::Snapshot& snap,
                       const std::vector<NodeId>& nodes, int k,
                       uint64_t seed) {
  DrawRecord rec;
  Rng many_rng(seed), loop_rng(seed), distinct_rng(seed);
  snap.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &many_rng,
                           &rec.many);
  for (NodeId v : nodes) {
    for (int j = 0; j < k; ++j) {
      rec.loop.push_back(snap.SampleNeighbor(v, &loop_rng));
    }
    rec.distinct.push_back(snap.SampleDistinctNeighbors(v, k, &distinct_rng));
  }
  rec.many_next = many_rng.NextUint64();
  rec.loop_next = loop_rng.NextUint64();
  rec.distinct_next = distinct_rng.NextUint64();
  return rec;
}

/// The batch and the loop must both equal `draws` and leave the Rng at the
/// same word; the distinct draws are pinned separately.
void ExpectDraws(const DrawRecord& rec, const std::vector<NodeId>& draws,
                 uint64_t next,
                 const std::vector<std::vector<NodeId>>& distinct,
                 uint64_t distinct_next) {
  EXPECT_EQ(rec.many, draws);
  EXPECT_EQ(rec.loop, draws);
  EXPECT_EQ(rec.many_next, next);
  EXPECT_EQ(rec.loop_next, next);
  EXPECT_EQ(rec.distinct, distinct);
  EXPECT_EQ(rec.distinct_next, distinct_next);
}

TEST(DynamicGraphTest, DrawSequencesPinnedAcrossSnapshotCases) {
  // Fixed-seed draw sequences pinned as constants: any change in how the
  // snapshot consumes the Rng moves them. Nodes cover an untouched base row
  // (0), a weighted overlay row (1), a base row whose only delta the window
  // expires (4), a base-less row whose only live delta under the window
  // weighs zero (5), an overlay-born weighted row (8) and an overlay-born
  // all-zero-weight row (9). The windowed snapshot adds TTL exclusion and
  // decayed weights.
  HeteroGraph g = MakeTinyGraph(6, {1.0f, 3.0f, 0.5f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ManualClock clock(120);
  dyn.SetClock(&clock);
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 5, RelationKind::kClick, 2.0f, 0},
                                        {1, 6, RelationKind::kClick, 4.0f, 90},
                                        {1, 7, RelationKind::kClick, 1.0f, 100},
                                        {4, 6, RelationKind::kClick, 1.0f, 0}}))
                  .ok());
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent()},
                                   {{-1, 2, RelationKind::kClick, 2.0f, 110},
                                    {-1, 3, RelationKind::kClick, 1.0f, 110}}))
          .ok());
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent()},
                                   {{-1, 5, RelationKind::kClick, 0.0f, 110},
                                    {-1, 7, RelationKind::kClick, 0.0f, 110}}))
          .ok());
  const std::vector<NodeId> nodes = {0, 1, 4, 5, 8, 9};
  ExpectDraws(RecordDraws(dyn.MakeSnapshot(), nodes, 4, 4242),
              {1, 1, 1, 1, 6, 6, 2, 3, 6, 1, 1, 6,
               1, 1, 1, 1, 3, 2, 2, 2, 5, 7, 7, 5},
              6054656398199680410ull,
              {{1}, {3, 2, 6, 5}, {1, 6}, {1}, {3, 2}, {7, 5}},
              11070049676804575897ull);
  ExpectDraws(RecordDraws(dyn.MakeSnapshot(DecaySpec::Window(50, 100.0)),
                          nodes, 4, 4243),
              {1, 1, 1, 1, 6, 6, 3, 3, 1, 1, 1, 1,
               9, 9, 9, 9, 2, 3, 2, 2, 7, 5, 7, 7},
              16019359982729784836ull,
              {{1}, {6, 3, 4, 0}, {1}, {9}, {3, 2}, {7, 5}},
              15230629811859829421ull);
}

TEST(DynamicGraphTest, ConcurrentBatchedSamplingDuringFoldIsRaceFree) {
  // Sanitizer target (ctest -L concurrent): batched snapshot reads race
  // incremental folds and fresh deltas. Pinned snapshots must keep serving
  // their epoch without tearing while successors publish underneath.
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 16;
  HeteroGraph g = MakeTinyGraph(62, {2.0f, 1.0f, 4.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opts);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.push_back(v);
  std::atomic<bool> stop{false};
  std::thread folder([&] {
    Rng rng(3);
    for (int round = 0; round < 40; ++round) {
      const NodeId item = 2 + static_cast<NodeId>(rng.Uniform(62));
      Status st = dyn.ApplyBatch(
          MakeBatch(&log, 0, {{1, item, RelationKind::kClick, 1.0f, 0}}));
      EXPECT_TRUE(st.ok());
      if (round % 4 == 3) {
        auto folded = dyn.CompactSegments(
            {round % dyn.num_segments_allocated()});
        EXPECT_TRUE(folded.ok());
      }
    }
    stop.store(true);
  });
  Rng rng(9);
  std::vector<NodeId> out;
  while (!stop.load()) {
    auto snap = dyn.MakeSnapshot();
    snap.SampleManyNeighbors({nodes.data(), nodes.size()}, 3, &rng, &out);
    ASSERT_EQ(out.size(), nodes.size() * 3);
    // Node 1 always has at least its base user edge.
    EXPECT_NE(out[1 * 3], -1);
  }
  folder.join();
}

TEST(DynamicGraphTest, WatermarkExcludesIssuedButUnappliedEpochs) {
  // Regression for the cross-shard ordering bug: shard 0's batch draws a
  // lower epoch than shard 1's but applies later. Snapshots used to pin to
  // the max applied epoch, so the late lower-epoch apply surfaced
  // retroactively inside live snapshots. With the watermark, snapshots pin
  // below the oldest issued-but-unapplied epoch and stay immutable.
  HeteroGraph g = MakeTinyGraph(6);
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);

  DeltaBatch slow =
      MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}, &dyn);
  DeltaBatch fast =
      MakeBatch(&log, 1, {{1, 3, RelationKind::kClick, 1.0f, 0}}, &dyn);
  ASSERT_LT(slow.epoch, fast.epoch);
  ASSERT_TRUE(dyn.ApplyBatch(fast).ok());  // out of order: fast lands first

  EXPECT_EQ(dyn.epoch(), fast.epoch);
  EXPECT_EQ(dyn.watermark_epoch(), slow.epoch - 1);
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.epoch(), slow.epoch - 1);
  EXPECT_EQ(snap.Degree(1), 1);  // base user edge only; neither delta visible

  // The interleaving the old code mishandled: the lower-epoch batch lands
  // while the snapshot is live. The snapshot must not change.
  ASSERT_TRUE(dyn.ApplyBatch(slow).ok());
  EXPECT_EQ(snap.Degree(1), 1);

  // Once nothing is pending, a fresh snapshot surfaces both batches.
  EXPECT_EQ(dyn.watermark_epoch(), fast.epoch);
  auto fresh = dyn.MakeSnapshot();
  EXPECT_EQ(fresh.epoch(), fast.epoch);
  EXPECT_EQ(fresh.Degree(1), 3);
}

TEST(DynamicGraphTest, RejectedBatchDoesNotFreezeWatermark) {
  // A batch that fails ApplyBatch validation will never apply; its pending
  // mark must be retired or the watermark would pin every later snapshot
  // below it forever.
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  DeltaBatch bad =
      MakeBatch(&log, 0, {{1, 99, RelationKind::kClick, 1.0f, 0}}, &dyn);
  EXPECT_FALSE(dyn.ApplyBatch(bad).ok());
  DeltaBatch good =
      MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}, &dyn);
  ASSERT_TRUE(dyn.ApplyBatch(good).ok());
  EXPECT_EQ(dyn.watermark_epoch(), good.epoch);
  EXPECT_EQ(dyn.MakeSnapshot().Degree(1), 2);  // base edge + fresh delta
}

TEST(DynamicGraphTest, WatermarkEqualsEpochWithoutObserver) {
  // Untracked issuance (no pipeline, no observer): behaves exactly as the
  // pre-watermark code — snapshots pin to the max applied epoch.
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  EXPECT_EQ(dyn.watermark_epoch(), dyn.epoch());
  EXPECT_EQ(dyn.MakeSnapshot().epoch(), dyn.epoch());
}

TEST(DynamicGraphTest, CompactFoldsDeltasIntoBase) {
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 3.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 4.0f, 0},
                                {1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  const uint64_t pre_epoch = dyn.epoch();
  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded.value(), pre_epoch);
  log.Truncate(folded.value());
  EXPECT_EQ(log.Stats().total_events, 0);

  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(dyn.num_delta_nodes(), 0);
  auto base = dyn.base();
  EXPECT_EQ(base->degree(1), 4);  // user + items 2, 3 (coalesced), 4
  // Coalesced weight on the duplicated (1, 3) click edge.
  auto ids = base->neighbor_ids(1);
  auto weights = base->neighbor_weights(1);
  bool found = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 3) {
      EXPECT_FLOAT_EQ(weights[i], 5.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Post-compact snapshots serve the same distribution, now via pure CSR.
  auto snap = dyn.MakeSnapshot();
  EXPECT_FALSE(snap.HasDelta(1));
  EXPECT_NEAR(snap.TotalWeight(1), 11.0, 1e-6);
}

TEST(DynamicGraphTest, ReplayFromLogRebuildsView) {
  HeteroGraph g = MakeTinyGraph(6);
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 1, {{1, 4, RelationKind::kSession, 1.0f, 0}}))
          .ok());

  DynamicHeteroGraph replica(&g);
  for (const DeltaBatch& batch : log.ReadSince(0)) {
    ASSERT_TRUE(replica.ApplyBatch(batch).ok());
  }
  auto a = dyn.MakeSnapshot();
  auto b = replica.MakeSnapshot();
  EXPECT_EQ(a.epoch(), b.epoch());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(a.Degree(v), b.Degree(v));
    EXPECT_DOUBLE_EQ(a.TotalWeight(v), b.TotalWeight(v));
  }
}

// --- GraphView parity: base+delta vs compacted CSR ------------------------

/// The same delta set applied to two replicas: one kept as an overlay, the
/// other folded by Compact(). ROI sampling through the dynamic GraphView
/// must match sampling over the compacted CSR.
struct ParityFixture {
  HeteroGraph overlay_base;
  HeteroGraph folded_base;
  GraphDeltaLog overlay_log{1};
  GraphDeltaLog folded_log{1};
  std::unique_ptr<DynamicHeteroGraph> overlay;
  std::unique_ptr<DynamicHeteroGraph> folded;

  explicit ParityFixture(int num_items, uint64_t seed)
      : overlay_base(MakeContentGraph(num_items, seed)),
        folded_base(MakeContentGraph(num_items, seed)) {
    overlay = std::make_unique<DynamicHeteroGraph>(&overlay_base);
    folded = std::make_unique<DynamicHeteroGraph>(&folded_base);
    // Fresh edges to the second half of the items plus weight increments on
    // already-connected ones, mirroring accumulating click traffic.
    std::vector<EdgeEvent> deltas;
    Rng rng(seed + 1);
    for (int i = num_items / 2; i < num_items; ++i) {
      deltas.push_back({1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                        0.5f + 2.0f * rng.UniformFloat(), 0});
    }
    for (int i = 0; i < num_items / 4; ++i) {
      deltas.push_back({1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                        1.0f, 0});
    }
    EXPECT_TRUE(
        overlay->ApplyBatch(MakeBatch(&overlay_log, 0, deltas)).ok());
    EXPECT_TRUE(folded->ApplyBatch(MakeBatch(&folded_log, 0, deltas)).ok());
    EXPECT_TRUE(folded->Compact().ok());
  }
};

TEST(GraphViewParityTest, FocalTopKRoiIdenticalOverlayVsCompacted) {
  ParityFixture fx(12, 99);
  DynamicGraphView overlay_view(fx.overlay.get());
  DynamicGraphView folded_view(fx.folded.get());
  ASSERT_GT(fx.overlay->num_delta_entries(), 0);
  ASSERT_EQ(fx.folded->num_delta_entries(), 0);  // folded into the CSR

  core::RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 2;
  opt.kind = core::SamplerKind::kFocalTopK;
  core::RoiSampler sampler(opt);
  auto fc_a = sampler.FocalVector(overlay_view, {0, 1});
  auto fc_b = sampler.FocalVector(folded_view, {0, 1});
  EXPECT_EQ(fc_a, fc_b);

  for (uint64_t seed : {1u, 7u, 31u}) {
    Rng ra(seed), rb(seed);
    auto a = sampler.Sample(overlay_view, 1, fc_a, &ra);
    auto b = sampler.Sample(folded_view, 1, fc_b, &rb);
    // Tie-free relevance scores make focal top-k fully deterministic: the
    // two views must select the same tree, not merely similar ones.
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
      EXPECT_EQ(a.nodes[i].depth, b.nodes[i].depth);
      EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
      // Coalesced-weight float summation order differs between the overlay
      // merge and the compacted builder; allow rounding slack only.
      EXPECT_NEAR(a.nodes[i].edge_weight, b.nodes[i].edge_weight, 1e-4f);
    }
  }
}

TEST(GraphViewParityTest, WeightedEdgeDistributionMatchesCompacted) {
  ParityFixture fx(10, 41);
  DynamicGraphView overlay_view(fx.overlay.get());
  DynamicGraphView folded_view(fx.folded.get());

  core::RoiSamplerOptions opt;
  opt.k = 1;
  opt.num_hops = 1;
  opt.kind = core::SamplerKind::kWeightedEdge;
  core::RoiSampler sampler(opt);
  auto fc = sampler.FocalVector(overlay_view, {0, 1});

  // With k = 1 each ROI holds the ego plus one weighted draw; empirical
  // child frequencies from the two views must agree (two-level overlay
  // resampling vs a rebuilt alias table over the identical merged weights).
  const int draws = 40000;
  auto frequencies = [&](const graph::GraphView& view, uint64_t seed) {
    Rng rng(seed);
    std::map<NodeId, double> freq;
    for (int i = 0; i < draws; ++i) {
      auto roi = sampler.Sample(view, 1, fc, &rng);
      if (roi.size() > 1) freq[roi.nodes[1].id] += 1.0 / draws;
    }
    return freq;
  };
  auto fa = frequencies(overlay_view, 5);
  auto fb = frequencies(folded_view, 6);
  std::map<NodeId, double> support = fa;
  for (const auto& [id, p] : fb) support.emplace(id, 0.0);
  ASSERT_GE(support.size(), 10u);  // both halves of the item range show up
  for (const auto& [id, unused] : support) {
    EXPECT_NEAR(fa[id], fb[id], 0.015) << "child " << id;
  }
}

// --- Mid-ingest compaction quiescence --------------------------------------

TEST(IngestPipelineTest, MidIngestCompactionPreservesEveryDelta) {
  // Compact() used to require a caller-managed Flush(); invoking it while
  // batches were mid-apply could split a batch across base and overlay. The
  // quiescence handshake parks consumers at batch boundaries, so hammering
  // Compact() during ingestion must conserve every applied half-edge.
  HeteroGraph g = MakeTinyGraph(40);
  double base_total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (float w : g.neighbor_weights(v)) base_total += w;
  }
  GraphDeltaLog log(4);
  DynamicHeteroGraph dyn(&g);
  IngestOptions iopt;
  iopt.num_shards = 4;
  iopt.batch_size = 8;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  std::atomic<bool> stop_compactor{false};
  std::atomic<int> compactions{0};
  std::thread compactor([&] {
    while (!stop_compactor.load()) {
      auto folded = dyn.Compact();
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
      compactions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {2 + static_cast<NodeId>(rng.Uniform(40)),
                      2 + static_cast<NodeId>(rng.Uniform(40))};
    ASSERT_TRUE(pipeline.Offer(session));
  }
  pipeline.Flush();
  stop_compactor.store(true);
  compactor.join();

  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.events_applied, stats.events);
  EXPECT_EQ(pipeline.events_dropped(), 0);
  EXPECT_GT(compactions.load(), 0);

  // Mass conservation: every applied event added weight 1 to each endpoint,
  // whether it now lives in the rebuilt CSR or a delta overlay.
  auto snap = dyn.MakeSnapshot();
  double total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) total += snap.TotalWeight(v);
  EXPECT_NEAR(total, base_total + 2.0 * stats.events_applied, 0.5);

  // A final quiesced compaction folds the remainder and truncates cleanly.
  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(log.Stats().total_events, 0);
  pipeline.Stop();
}

// --- Training freshness through the dynamic GraphView -----------------------

TEST(TrainingFreshnessTest, MidIngestRoiSampleSeesFreshEdgesWithoutCompact) {
  // Acceptance: edges ingested mid-training are returned by the very next
  // RoiSampler::Sample through the dynamic GraphView — no Compact() needed.
  HeteroGraph g = MakeTinyGraph(10, {1.0f, 1.0f});
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  DynamicGraphView view(&dyn);

  core::RoiSamplerOptions opt;
  opt.k = 10;
  opt.num_hops = 1;
  core::RoiSampler sampler(opt);
  Rng rng(7);
  auto fc = sampler.FocalVector(view, {0, 1});
  const NodeId fresh_item = 2 + 7;
  auto before = sampler.Sample(view, 1, fc, &rng);
  for (const auto& n : before.nodes) EXPECT_NE(n.id, fresh_item);

  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh_item};
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();

  const auto base_before = dyn.base();
  view.Refresh();
  auto after = sampler.Sample(view, 1, fc, &rng);
  bool found = false;
  for (const auto& n : after.nodes) {
    found |= n.id == fresh_item && n.depth == 1;
  }
  EXPECT_TRUE(found);
  // The fresh edge came from the overlay, not from a compaction.
  EXPECT_EQ(dyn.base(), base_before);
  EXPECT_GT(dyn.num_delta_entries(), 0);
  pipeline.Stop();
}

TEST(TrainingFreshnessTest, TrainerRefreshesViewAtBatchBoundaries) {
  data::TaobaoGeneratorOptions gopt;
  gopt.num_users = 40;
  gopt.num_queries = 30;
  gopt.num_items = 80;
  gopt.num_sessions = 300;
  gopt.num_categories = 5;
  gopt.content_dim = 8;
  gopt.seed = 13;
  auto ds = data::GenerateTaobaoDataset(gopt);

  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&ds.graph);
  DynamicGraphView view(&dyn);
  core::ZoomerConfig cfg;
  cfg.hidden_dim = 4;
  cfg.sampler.k = 2;
  cfg.sampler.num_hops = 1;
  core::ZoomerModel model(&ds.graph, cfg);
  core::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 16;
  topt.max_examples_per_epoch = 48;
  core::ZoomerTrainer trainer(&model, topt);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  AttachTrainingFreshness(&model, &trainer, &view, &pipeline);
  EXPECT_EQ(&model.view(), &view);
  pipeline.Start();

  // Land live traffic before the run so the first batch boundary must
  // observe it (deterministic; a concurrent feeder would also work).
  data::LiveSessionOptions lopt;
  lopt.num_sessions = 50;
  lopt.seed = 5;
  pipeline.OfferLog(data::SynthesizeLiveSessions(ds, lopt));
  pipeline.Flush();
  ASSERT_GT(dyn.epoch(), 0u);
  EXPECT_EQ(view.epoch(), 0u);  // not yet re-pinned

  auto result = trainer.Train(ds);
  EXPECT_GT(result.graph_refreshes, 0);
  EXPECT_EQ(result.graph_epoch, dyn.epoch());
  EXPECT_EQ(view.epoch(), dyn.epoch());
  pipeline.Stop();
}

// --- NeighborCache streaming integration ----------------------------------

TEST(NeighborCacheStreamingTest, InvalidateDropsEntryAndRefills) {
  HeteroGraph g = MakeTinyGraph(5, {1.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  serving::NeighborCacheOptions opt;
  opt.k = 5;
  serving::NeighborCache cache(&g, opt);
  cache.AttachDynamicGraph(&dyn);

  cache.Warm(1);
  std::vector<NodeId> out;
  ASSERT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out.size(), 2u);  // user 0 + item 2

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 4, RelationKind::kClick, 3.0f, 0}}))
          .ok());
  cache.Invalidate(1);
  auto stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1);

  // The asynchronous re-fill lands the fresh neighbor.
  bool fresh = false;
  for (int i = 0; i < 500 && !fresh; ++i) {
    if (cache.Get(1, &out)) {
      fresh = std::find(out.begin(), out.end(), 4) != out.end();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fresh);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(NeighborCacheStreamingTest, InvalidateUncachedNodeIsNoOp) {
  HeteroGraph g = MakeTinyGraph(3);
  serving::NeighborCache cache(&g, {});
  cache.Invalidate(0);
  auto stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 0);
  EXPECT_EQ(stats.scheduled_fills, 0);
}

TEST(NeighborCacheStreamingTest, ConcurrentMissesCoalesceIntoOneFill) {
  HeteroGraph g = MakeTinyGraph(5, {1.0f, 1.0f, 1.0f});
  serving::NeighborCacheOptions opt;
  opt.refresh_delay_micros = 100000;  // hold the fill open for 100ms
  serving::NeighborCache cache(&g, opt);
  std::vector<NodeId> out;
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(cache.Get(1, &out));
  }
  auto stats = cache.Stats();
  EXPECT_EQ(stats.misses, 50);
  EXPECT_EQ(stats.scheduled_fills, 1);  // dedup: one background fill only
  for (int i = 0; i < 1000 && cache.size() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cache.Get(1, &out));
}

TEST(NeighborCacheStreamingTest, InvalidateDuringInFlightFillRerunsFill) {
  HeteroGraph g = MakeTinyGraph(5, {1.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  serving::NeighborCacheOptions opt;
  opt.k = 5;
  opt.refresh_delay_micros = 100000;  // fill computes 100ms after the miss
  serving::NeighborCache cache(&g, opt);
  cache.AttachDynamicGraph(&dyn);

  std::vector<NodeId> out;
  EXPECT_FALSE(cache.Get(1, &out));  // fill now in flight
  // Graph update + invalidation land while the fill is still computing:
  // the fill's result may predate the update, so it must re-run.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 4, RelationKind::kClick, 3.0f, 0}}))
          .ok());
  cache.Invalidate(1);
  EXPECT_EQ(cache.Stats().invalidations, 1);

  bool fresh = false;
  for (int i = 0; i < 1000 && !fresh; ++i) {
    if (cache.Get(1, &out)) {
      fresh = std::find(out.begin(), out.end(), 4) != out.end();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fresh);
  EXPECT_GE(cache.Stats().scheduled_fills, 2);  // original + dirty re-run
}

// --- IngestPipeline -------------------------------------------------------

TEST(IngestPipelineTest, SessionToEventsWiresBuilderEdges) {
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {2, 3, 4};
  session.timestamp = 7;
  auto events = SessionToEvents(session);
  // 1 user-query + 3 query-item clicks + 2 session adjacencies.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].src, 0);
  EXPECT_EQ(events[0].dst, 1);
  EXPECT_EQ(events[0].kind, RelationKind::kClick);
  int session_edges = 0;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.timestamp, 7);
    session_edges += ev.kind == RelationKind::kSession;
  }
  EXPECT_EQ(session_edges, 2);
}

TEST(IngestPipelineTest, IngestAppliesEventsAndNotifies) {
  HeteroGraph g = MakeTinyGraph(10);
  const int kShards = 4;
  GraphDeltaLog log(kShards);
  DynamicHeteroGraph dyn(&g);
  engine::EngineOptions eopt;
  eopt.num_shards = kShards;
  eopt.replication_factor = 1;
  engine::DistributedGraphEngine engine(&g, eopt);
  engine.ConnectUpdateFanout(&log, &dyn);

  IngestOptions iopt;
  iopt.num_shards = kShards;
  iopt.batch_size = 4;
  IngestPipeline pipeline(&log, &dyn, iopt, &engine);
  std::mutex mu;
  std::vector<NodeId> touched;
  pipeline.AddUpdateListener([&](uint64_t, const std::vector<NodeId>& nodes) {
    std::lock_guard<std::mutex> lock(mu);
    touched.insert(touched.end(), nodes.begin(), nodes.end());
  });
  pipeline.Start();

  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {5, 6};
  EXPECT_TRUE(pipeline.Offer(session));
  // Out-of-range click: its events drop, valid edges still land.
  graph::SessionRecord bad = session;
  bad.clicks = {5, 999};
  pipeline.Offer(bad);
  pipeline.Flush();

  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.sessions, 2);
  EXPECT_EQ(stats.events_applied, stats.events);
  EXPECT_GT(stats.batches, 0);
  EXPECT_GT(pipeline.events_dropped(), 0);

  auto snap = dyn.MakeSnapshot();
  EXPECT_TRUE(snap.HasDelta(5));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_NE(std::find(touched.begin(), touched.end(), 5), touched.end());
  }
  // Engine: shard-routed update stats and dynamic sampling of fresh edges.
  // The replicas apply the log on their own threads; the read-your-writes
  // floor makes the read wait for (or fall back past) a replica that has
  // not caught up with the flushed epoch yet.
  auto estats = engine.Stats();
  EXPECT_EQ(estats.total_update_events, stats.events_applied);
  engine::SampleRequest req;
  req.node = 1;
  req.k = 10;
  req.rng_seed = 3;
  req.min_epoch = dyn.watermark_epoch();
  auto resp = engine.Sample(req);
  ASSERT_TRUE(resp.ok());
  bool has_fresh = false;
  for (NodeId nb : resp.value().neighbors) has_fresh |= nb == 5 || nb == 6;
  EXPECT_TRUE(has_fresh);
  pipeline.Stop();
}

TEST(IngestPipelineTest, LiveSessionsFromDatasetIngestCleanly) {
  data::TaobaoGeneratorOptions opt;
  opt.num_users = 40;
  opt.num_queries = 30;
  opt.num_items = 80;
  opt.num_sessions = 300;
  opt.num_categories = 5;
  opt.content_dim = 8;
  opt.seed = 13;
  auto ds = data::GenerateTaobaoDataset(opt);

  data::LiveSessionOptions lopt;
  lopt.num_sessions = 200;
  lopt.seed = 31;
  auto live = data::SynthesizeLiveSessions(ds, lopt);
  ASSERT_EQ(live.size(), 200u);

  GraphDeltaLog log(4);
  DynamicHeteroGraph dyn(&ds.graph);
  IngestOptions iopt;
  iopt.num_shards = 4;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();
  pipeline.OfferLog(live);
  pipeline.Flush();
  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.sessions, 200);
  EXPECT_GT(stats.events_applied, 200);
  EXPECT_EQ(pipeline.events_dropped(), 0);  // live nodes all exist
  EXPECT_EQ(dyn.num_delta_entries(), 2 * stats.events_applied);
  pipeline.Stop();
}

// --- Streaming node ingestion: id-space growth ----------------------------

TEST(NodeIngestTest, NodeBatchGrowsIdSpaceAtItsEpoch) {
  HeteroGraph g = MakeTinyGraph(3);  // ids 0..4
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  EXPECT_EQ(dyn.num_nodes_allocated(), g.num_nodes());

  auto before = dyn.MakeSnapshot();
  EXPECT_EQ(before.num_nodes(), g.num_nodes());

  DeltaBatch batch = MakeNodeBatch(
      &log, 0, &dyn, {MakeItemEvent(0.4f)},
      {{1, -1, RelationKind::kClick, 2.0f, 0}});  // -1 = the new item
  const NodeId fresh = batch.node_events[0].id;
  EXPECT_EQ(fresh, g.num_nodes());  // appended, renumber-free
  EXPECT_EQ(batch.events[0].dst, fresh);  // placeholder resolved
  EXPECT_EQ(dyn.num_nodes_allocated(), g.num_nodes() + 1);
  ASSERT_TRUE(dyn.ApplyBatch(batch).ok());

  // The pre-ingest snapshot never grows; a fresh snapshot covers the node
  // with full type/content/slot lookups and delta adjacency both ways.
  EXPECT_EQ(before.num_nodes(), g.num_nodes());
  auto after = dyn.MakeSnapshot();
  EXPECT_EQ(after.num_nodes(), g.num_nodes() + 1);
  EXPECT_EQ(after.node_type(fresh), NodeType::kItem);
  EXPECT_FLOAT_EQ(after.content(fresh)[0], 0.4f);
  ASSERT_EQ(after.slots(fresh).size(), 2u);
  EXPECT_EQ(after.slots(fresh)[1], 8);
  EXPECT_EQ(after.Degree(fresh), 1);
  Rng rng(3);
  EXPECT_EQ(after.SampleNeighbor(fresh, &rng), 1);
  bool fresh_sampled = false;
  for (int i = 0; i < 200; ++i) {
    fresh_sampled |= after.SampleNeighbor(1, &rng) == fresh;
  }
  EXPECT_TRUE(fresh_sampled);  // weight 2 of 3 at the query

  // The delta log replays node batches onto a replica.
  DynamicHeteroGraph replica(&g);
  for (const DeltaBatch& replayed : log.ReadSince(0)) {
    ASSERT_TRUE(replica.ApplyBatch(replayed).ok());
  }
  auto mirrored = replica.MakeSnapshot();
  EXPECT_EQ(mirrored.num_nodes(), after.num_nodes());
  EXPECT_EQ(mirrored.node_type(fresh), NodeType::kItem);
  EXPECT_EQ(mirrored.Degree(fresh), 1);
}

TEST(NodeIngestTest, ApplyBatchValidatesNodeAndEdgeGrowth) {
  HeteroGraph g = MakeTinyGraph(3);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);

  // Edge to a never-ingested id is rejected, not silently dropped.
  EXPECT_FALSE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0,
                       {{1, g.num_nodes(), RelationKind::kClick, 1.0f, 0}},
                       &dyn))
          .ok());

  // Content dim mismatch rejects the whole batch without allocating.
  {
    NodeEvent bad;
    bad.id = g.num_nodes();
    bad.content = std::vector<float>(kDim + 1, 0.1f);
    DeltaBatch batch;
    batch.epoch = log.Append(0, {}, [&dyn](uint64_t e) {
      dyn.NoteEpochIssued(e);
    });
    batch.node_events = {std::move(bad)};
    EXPECT_FALSE(dyn.ApplyBatch(batch).ok());
    EXPECT_EQ(dyn.num_nodes_allocated(), g.num_nodes());
  }

  // An id gap (skipping one) is rejected; in-order direct ids apply.
  {
    NodeEvent gap = MakeItemEvent();
    gap.id = g.num_nodes() + 1;
    DeltaBatch batch;
    batch.epoch = log.Append(0, {}, [&dyn](uint64_t e) {
      dyn.NoteEpochIssued(e);
    });
    batch.node_events = {std::move(gap)};
    EXPECT_FALSE(dyn.ApplyBatch(batch).ok());
  }
  {
    NodeEvent ok = MakeItemEvent();
    ok.id = g.num_nodes();
    DeltaBatch batch;
    batch.epoch = log.Append(0, {}, [&dyn](uint64_t e) {
      dyn.NoteEpochIssued(e);
    });
    batch.node_events = {std::move(ok)};
    ASSERT_TRUE(dyn.ApplyBatch(batch).ok());
    EXPECT_EQ(dyn.MakeSnapshot().num_nodes(), g.num_nodes() + 1);
  }

  // A rejected mixed batch must not leave a stranded allocation that would
  // block later nodes' visibility.
  {
    NodeEvent node = MakeItemEvent();
    node.id = g.num_nodes() + 1;
    DeltaBatch batch;
    batch.epoch = log.Append(0, {}, [&dyn](uint64_t e) {
      dyn.NoteEpochIssued(e);
    });
    batch.node_events = {std::move(node)};
    batch.events = {{1, 1, RelationKind::kClick, 1.0f, 0}};  // self-loop
    EXPECT_FALSE(dyn.ApplyBatch(batch).ok());
    EXPECT_EQ(dyn.num_nodes_allocated(), g.num_nodes() + 1);
  }
  DeltaBatch later = MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent()});
  ASSERT_TRUE(dyn.ApplyBatch(later).ok());
  EXPECT_EQ(dyn.MakeSnapshot().num_nodes(), g.num_nodes() + 2);
}

TEST(NodeIngestTest, MidEpochNodeInvisibleToOlderPinnedSnapshots) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}},
                       &dyn))
          .ok());
  auto old_snap = dyn.MakeSnapshot();

  DeltaBatch birth = MakeNodeBatch(
      &log, 0, &dyn, {MakeItemEvent()},
      {{1, -1, RelationKind::kClick, 50.0f, 0}});
  const NodeId fresh = birth.node_events[0].id;
  ASSERT_TRUE(dyn.ApplyBatch(birth).ok());

  // The old pin: id-space, degrees, and draws all predate the birth.
  EXPECT_EQ(old_snap.num_nodes(), g.num_nodes());
  EXPECT_EQ(old_snap.Degree(1), 2);  // base user edge + one delta
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const NodeId nb = old_snap.SampleNeighbor(1, &rng);
    ASSERT_GE(nb, 0);
    ASSERT_LT(nb, old_snap.num_nodes());
  }
  auto fresh_snap = dyn.MakeSnapshot();
  EXPECT_EQ(fresh_snap.num_nodes(), g.num_nodes() + 1);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    hits += fresh_snap.SampleNeighbor(1, &rng) == fresh;
  }
  EXPECT_GT(hits, 800);  // 50/52 of the query's mass
}

TEST(NodeIngestTest, CompactFoldsOverlayNodesRenumberFree) {
  HeteroGraph g = MakeTinyGraph(3, {1.0f});
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g);
  DeltaBatch birth = MakeNodeBatch(
      &log, 0, &dyn, {MakeItemEvent(0.7f, 42)},
      {{1, -1, RelationKind::kClick, 3.0f, 0},
       {-1, 2, RelationKind::kSession, 1.5f, 0}});
  const NodeId fresh = birth.node_events[0].id;
  ASSERT_TRUE(dyn.ApplyBatch(birth).ok());
  auto pre = dyn.MakeSnapshot();
  std::vector<graph::NeighborEntry> pre_nbrs;
  pre.Neighbors(fresh, &pre_nbrs);

  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.num_delta_entries(), 0);

  // Conservation: the node and both its edges graduated into the new base
  // under the same id; the old pinned snapshot still resolves it.
  auto base = dyn.base();
  ASSERT_EQ(base->num_nodes(), g.num_nodes() + 1);
  EXPECT_EQ(base->node_type(fresh), NodeType::kItem);
  EXPECT_FLOAT_EQ(base->content(fresh)[0], 0.7f);
  ASSERT_EQ(base->slots(fresh).size(), 2u);
  EXPECT_EQ(base->degree(fresh), 2);
  auto post = dyn.MakeSnapshot();
  EXPECT_EQ(post.num_nodes(), g.num_nodes() + 1);
  std::vector<graph::NeighborEntry> post_nbrs;
  post.Neighbors(fresh, &post_nbrs);
  ASSERT_EQ(post_nbrs.size(), pre_nbrs.size());
  double pre_mass = 0.0, post_mass = 0.0;
  for (const auto& e : pre_nbrs) pre_mass += e.weight;
  for (const auto& e : post_nbrs) post_mass += e.weight;
  EXPECT_NEAR(pre_mass, post_mass, 1e-5);
  EXPECT_EQ(pre.node_type(fresh), NodeType::kItem);  // old pin still valid

  // Growth continues past the fold: the next node appends after `fresh`.
  DeltaBatch next = MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent()});
  EXPECT_EQ(next.node_events[0].id, fresh + 1);
  ASSERT_TRUE(dyn.ApplyBatch(next).ok());
  EXPECT_EQ(dyn.MakeSnapshot().num_nodes(), g.num_nodes() + 2);
}

TEST(NodeIngestTest, PipelineOfferNewNodeIsImmediatelyServable) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  std::mutex mu;
  std::vector<NodeId> touched;
  pipeline.AddUpdateListener([&](uint64_t, const std::vector<NodeId>& nodes) {
    std::lock_guard<std::mutex> lock(mu);
    touched.insert(touched.end(), nodes.begin(), nodes.end());
  });
  pipeline.Start();

  auto minted = pipeline.OfferNewNode(
      MakeItemEvent(), {{1, -1, RelationKind::kClick, 1.0f, 0}});
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  const NodeId fresh = minted.value();
  EXPECT_EQ(fresh, g.num_nodes());

  // Synchronous contract: traffic referencing the id is valid immediately.
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh, 2};
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();
  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.nodes_ingested, 1);
  EXPECT_EQ(pipeline.events_dropped(), 0);
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.num_nodes(), g.num_nodes() + 1);
  EXPECT_GE(snap.Degree(fresh), 2);  // intro click + session traffic
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_NE(std::find(touched.begin(), touched.end(), fresh),
              touched.end());
  }

  // Invalid offers fail fast without burning an id.
  const int64_t allocated = dyn.num_nodes_allocated();
  NodeEvent bad = MakeItemEvent();
  bad.content.resize(kDim + 2);
  EXPECT_FALSE(pipeline.OfferNewNode(std::move(bad)).ok());
  EXPECT_FALSE(pipeline
                   .OfferNewNode(MakeItemEvent(),
                                 {{999, -1, RelationKind::kClick, 1.0f, 0}})
                   .ok());
  EXPECT_EQ(dyn.num_nodes_allocated(), allocated);
  pipeline.Stop();
}

TEST(NodeIngestTest, RejectedUnknownNodeCountedPerShard) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {2, 999, 777};  // two clicks on never-ingested items
  pipeline.Offer(session);
  pipeline.Flush();
  auto stats = pipeline.Stats();
  ASSERT_EQ(stats.rejected_unknown_node.size(), 2u);
  int64_t rejected = 0;
  for (int64_t r : stats.rejected_unknown_node) rejected += r;
  // query->999, query->777, 2->999 session, 999->777 session... exactly the
  // events with an unknown endpoint.
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(pipeline.events_dropped(), rejected);
  pipeline.Stop();
}

TEST(NodeIngestTest, ColdStartArrivalsFlowThroughThePipeline) {
  data::TaobaoGeneratorOptions gopt;
  gopt.num_users = 30;
  gopt.num_queries = 20;
  gopt.num_items = 50;
  gopt.num_sessions = 200;
  gopt.num_categories = 4;
  gopt.content_dim = 8;
  gopt.seed = 21;
  auto ds = data::GenerateTaobaoDataset(gopt);

  data::ColdStartOptions copt;
  copt.num_new_items = 12;
  copt.seed = 5;
  auto arrivals = data::SynthesizeColdStartArrivals(ds, copt);
  ASSERT_EQ(arrivals.size(), 12u);

  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&ds.graph);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();
  std::vector<NodeId> minted;
  for (auto& arrival : arrivals) {
    auto id = pipeline.OfferNewNode(std::move(arrival.item),
                                    std::move(arrival.edges));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    minted.push_back(id.value());
  }
  pipeline.Flush();
  EXPECT_EQ(pipeline.Stats().nodes_ingested, 12);
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.num_nodes(), ds.graph.num_nodes() + 12);
  for (NodeId id : minted) {
    EXPECT_EQ(snap.node_type(id), NodeType::kItem);
    EXPECT_GE(snap.Degree(id), 2);  // intro clicks + session sibling
  }

  // The ROI sampler reaches cold-start items through the dynamic view.
  DynamicGraphView view(&dyn);
  EXPECT_EQ(view.num_nodes(), snap.num_nodes());
  core::RoiSamplerOptions ropt;
  ropt.k = 8;
  ropt.num_hops = 2;
  core::RoiSampler sampler(ropt);
  Rng rng(9);
  int reachable = 0;
  for (NodeId id : minted) {
    auto fc = sampler.FocalVector(view, {0, id});
    auto roi = sampler.Sample(view, id, fc, &rng);
    EXPECT_EQ(roi.ego(), id);
    reachable += roi.size() > 1;
    for (const auto& n : roi.nodes) {
      ASSERT_GE(n.id, 0);
      ASSERT_LT(n.id, view.num_nodes());
    }
  }
  EXPECT_EQ(reachable, 12);
  pipeline.Stop();
}

TEST(NodeIngestTest, SamplerNeverExceedsPinnedNumNodesUnderIngest) {
  HeteroGraph g = MakeTinyGraph(20);
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  std::atomic<bool> stop{false};
  std::thread minter([&] {
    Rng rng(31);
    while (!stop.load()) {
      auto id = pipeline.OfferNewNode(
          MakeItemEvent(0.2f + 0.6f * rng.UniformFloat()),
          {{1, -1, RelationKind::kClick, 1.0f, 0}});
      ASSERT_TRUE(id.ok());
      graph::SessionRecord session;
      session.user = 0;
      session.query = 1;
      session.clicks = {id.value()};
      pipeline.Offer(session);
    }
  });

  // Make sure the minter actually interleaves with the reads (it may not
  // have been scheduled yet on a loaded host).
  while (dyn.num_nodes_allocated() == g.num_nodes()) {
    std::this_thread::yield();
  }
  Rng rng(13);
  for (int round = 0; round < 150; ++round) {
    auto snap = dyn.MakeSnapshot();
    const int64_t pinned = snap.num_nodes();
    for (int i = 0; i < 40; ++i) {
      const NodeId nb = snap.SampleNeighbor(1, &rng);
      ASSERT_GE(nb, 0);
      ASSERT_LT(nb, pinned);
      for (NodeId d : snap.SampleDistinctNeighbors(1, 4, &rng)) {
        ASSERT_LT(d, pinned);
      }
    }
    ASSERT_EQ(snap.num_nodes(), pinned);  // a pin never grows
  }
  stop.store(true);
  minter.join();
  pipeline.Flush();
  EXPECT_GT(dyn.MakeSnapshot().num_nodes(), g.num_nodes());
  pipeline.Stop();
}

// --- End-to-end serving freshness -----------------------------------------

TEST(ServingFreshnessTest, IngestedClickBecomesVisibleInHandle) {
  const int dim = 16;
  const int num_items = 10;
  HeteroGraph g = MakeTinyGraph(num_items);
  // Item embeddings are one-hot; user/query embeddings are exactly zero, so
  // before ingest the aggregated request embedding is zero and every ANN
  // score is 0. After ingesting a click on item X, the cache re-fill makes
  // X a cached neighbor of both the user and the query, the aggregation
  // pulls the embedding toward e_X, and X must surface as the top item.
  std::vector<float> node_emb(g.num_nodes() * dim, 0.0f);
  std::vector<NodeId> item_ids;
  std::vector<float> item_emb(num_items * dim, 0.0f);
  for (int i = 0; i < num_items; ++i) {
    const NodeId id = 2 + i;
    node_emb[id * dim + i] = 1.0f;
    item_emb[i * dim + i] = 1.0f;
    item_ids.push_back(id);
  }
  serving::OnlineServerOptions opt;
  opt.embedding_dim = dim;
  opt.top_n = 3;
  serving::OnlineServer server(&g, opt, node_emb, item_ids, item_emb);

  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  server.AttachDynamicGraph(&dyn);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.AddUpdateListener([&](uint64_t epoch, const std::vector<NodeId>& nodes) {
    server.OnGraphUpdate(epoch, nodes);
  });
  pipeline.Start();

  server.WarmCache({0, 1});
  const serving::ServingRequest req{0, 1};
  auto before = server.Handle(req);
  ASSERT_EQ(before.items.size(), 3u);
  EXPECT_NEAR(before.items[0].score, 0.0f, 1e-5f);

  const NodeId fresh_item = 2 + 7;
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh_item};
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();

  // The update hook invalidated user/query entries; once the asynchronous
  // re-fill lands, Handle must rank the freshly clicked item first.
  bool visible = false;
  for (int i = 0; i < 2000 && !visible; ++i) {
    auto after = server.Handle(req);
    visible = !after.items.empty() && after.items[0].id == fresh_item &&
              after.items[0].score > 0.1f;
    if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(visible);
  EXPECT_GT(server.cache().Stats().invalidations, 0);
  pipeline.Stop();
}

TEST(ServingFreshnessTest, ColdStartItemRecommendedPreAndPostCompact) {
  // Acceptance (id-space growth e2e): a brand-new item node plus its first
  // edges stream in; the server indexes its embedding incrementally, a
  // request recommends it with no Compact() — and the fold then changes
  // nothing about the response.
  const int dim = 16;
  const int num_items = 10;
  HeteroGraph g = MakeTinyGraph(num_items);
  std::vector<float> node_emb(g.num_nodes() * dim, 0.0f);
  std::vector<NodeId> item_ids;
  std::vector<float> item_emb(num_items * dim, 0.0f);
  for (int i = 0; i < num_items; ++i) {
    const NodeId id = 2 + i;
    node_emb[id * dim + i] = 1.0f;
    item_emb[i * dim + i] = 1.0f;
    item_ids.push_back(id);
  }
  serving::OnlineServerOptions opt;
  opt.embedding_dim = dim;
  opt.top_n = 3;
  serving::OnlineServer server(&g, opt, node_emb, item_ids, item_emb);

  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g);
  server.AttachDynamicGraph(&dyn);
  IngestOptions iopt;
  iopt.num_shards = 2;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.AddUpdateListener([&](uint64_t epoch, const std::vector<NodeId>& nodes) {
    server.OnGraphUpdate(epoch, nodes);
  });
  pipeline.Start();
  server.WarmCache({0, 1});
  const serving::ServingRequest req{0, 1};
  EXPECT_NEAR(server.Handle(req).items[0].score, 0.0f, 1e-5f);

  // The item is born online: node event + introducing click in one batch.
  auto minted = pipeline.OfferNewNode(
      MakeItemEvent(0.3f), {{1, -1, RelationKind::kClick, 3.0f, 0}});
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  const NodeId fresh = minted.value();
  // Serving-side registration: embedding row + incremental ANN insert. The
  // embedding leans on an existing catalog direction (so the IVF coarse
  // quantizer routes both the insert and the probe to a trained list — a
  // fully orthogonal vector would land in an unprobed region) but keeps a
  // dominant novel component that makes the new item the unique best match.
  std::vector<float> fresh_emb(dim, 0.0f);
  fresh_emb[num_items] = 0.8f;
  fresh_emb[7] = 0.6f;
  ASSERT_TRUE(server.IngestNode(fresh, fresh_emb, /*is_item=*/true).ok());
  ASSERT_EQ(server.index().size(), num_items + 1);
  // Clicks keep accumulating on the new item through normal traffic.
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh, fresh};
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();

  // Pre-Compact: once the asynchronous cache re-fill lands, the cold-start
  // item must be the top recommendation.
  serving::ServingResponse before;
  bool visible = false;
  for (int i = 0; i < 2000 && !visible; ++i) {
    before = server.Handle(req);
    visible = !before.items.empty() && before.items[0].id == fresh &&
              before.items[0].score > 0.1f;
    if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(visible);
  ASSERT_GT(dyn.num_delta_entries(), 0);  // served from the overlay

  // The fold conserves the merged neighborhoods, so the response is
  // identical — same items in the same order.
  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.base()->num_nodes(), g.num_nodes() + 1);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  auto after = server.Handle(req);
  ASSERT_EQ(after.items.size(), before.items.size());
  for (size_t i = 0; i < after.items.size(); ++i) {
    EXPECT_EQ(after.items[i].id, before.items[i].id);
    EXPECT_NEAR(after.items[i].score, before.items[i].score, 1e-4f);
  }
  EXPECT_EQ(after.items[0].id, fresh);
  pipeline.Stop();
}

// --- Incremental compaction (segmented base) --------------------------------

/// Applies the same integer-weight event stream to two graphs; weights are
/// integers so float sums are exact and every read must be bit-identical
/// regardless of how (or how often) the base folded.
std::vector<std::vector<EdgeEvent>> ParityBatches() {
  // Nodes: user 0, query 1, items 2..15 (MakeContentGraph(14)); with
  // segment_span=4 the id-space splits into segments {0..3}, {4..7},
  // {8..11}, {12..15}. Edges deliberately cross segments and repeat
  // (neighbor, kind) pairs to exercise coalescing.
  return {
      {{1, 4, RelationKind::kClick, 2.0f, 0},
       {1, 4, RelationKind::kClick, 1.0f, 0},
       {0, 9, RelationKind::kClick, 3.0f, 0},
       {5, 13, RelationKind::kSession, 1.0f, 0}},
      {{1, 9, RelationKind::kClick, 4.0f, 0},
       {2, 10, RelationKind::kSession, 2.0f, 0},
       {0, 1, RelationKind::kClick, 1.0f, 0}},
      {{1, 4, RelationKind::kClick, 5.0f, 0},
       {12, 14, RelationKind::kSession, 3.0f, 0},
       {3, 12, RelationKind::kClick, 2.0f, 0}},
      {{1, 15, RelationKind::kClick, 1.0f, 0},
       {2, 10, RelationKind::kSession, 6.0f, 0}},
  };
}

TEST(IncrementalCompactionTest, SegmentFoldChainMatchesSingleFullFold) {
  HeteroGraph g = MakeContentGraph(14, 77);
  DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  // One shared log keeps epochs aligned between the two graphs — each
  // pipeline-less test applier marks only its own graph's epochs.
  GraphDeltaLog log_a(1), log_b(1);
  DynamicHeteroGraph a(&g, opt), b(&g, opt);
  ASSERT_EQ(a.base()->num_segments(), 4);

  const auto batches = ParityBatches();
  const std::vector<std::vector<int64_t>> folds = {{0}, {1, 3}, {2}, {}};
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(a.ApplyBatch(MakeBatch(&log_a, 0, batches[i])).ok());
    ASSERT_TRUE(b.ApplyBatch(MakeBatch(&log_b, 0, batches[i])).ok());
    if (!folds[i].empty()) {
      auto folded = a.CompactSegments(folds[i]);
      ASSERT_TRUE(folded.ok());
    }
  }
  // (a) chain of per-segment folds, closed by a full fold; (b) one full
  // fold over the identical stream.
  ASSERT_TRUE(a.Compact().ok());
  ASSERT_TRUE(b.Compact().ok());
  EXPECT_EQ(a.num_delta_entries(), 0);
  EXPECT_EQ(b.num_delta_entries(), 0);

  auto sa = a.MakeSnapshot();
  auto sb = b.MakeSnapshot();
  ASSERT_EQ(sa.num_nodes(), sb.num_nodes());
  Rng draw_a(99), draw_b(99);
  for (NodeId v = 0; v < sa.num_nodes(); ++v) {
    // Merged neighbor lists identical entry-for-entry (order included:
    // both folds sort rows by (neighbor type, kind, id)).
    std::vector<graph::NeighborEntry> na, nb;
    sa.Neighbors(v, &na);
    sb.Neighbors(v, &nb);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].neighbor, nb[i].neighbor) << "node " << v;
      EXPECT_EQ(na[i].kind, nb[i].kind) << "node " << v;
      EXPECT_FLOAT_EQ(na[i].weight, nb[i].weight) << "node " << v;
    }
    EXPECT_EQ(sa.Degree(v), sb.Degree(v));
    EXPECT_DOUBLE_EQ(sa.TotalWeight(v), sb.TotalWeight(v));
    // Identical rows + identical RNG stream => identical weighted draws
    // (the distributions are not merely close, they are the same).
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(sa.SampleNeighbor(v, &draw_a), sb.SampleNeighbor(v, &draw_b));
    }
  }

  // Focal top-k ROI through the dynamic views is identical too.
  DynamicGraphView va(&a), vb(&b);
  core::RoiSamplerOptions ropt;
  ropt.k = 4;
  ropt.num_hops = 2;
  core::RoiSampler roi(ropt);
  Rng ra(5), rb(5);
  for (NodeId ego : {NodeId{1}, NodeId{4}, NodeId{9}, NodeId{12}}) {
    auto fa = roi.FocalVector(va, {0, ego});
    auto fb = roi.FocalVector(vb, {0, ego});
    auto roi_a = roi.Sample(va, ego, fa, &ra);
    auto roi_b = roi.Sample(vb, ego, fb, &rb);
    ASSERT_EQ(roi_a.nodes.size(), roi_b.nodes.size());
    for (size_t i = 0; i < roi_a.nodes.size(); ++i) {
      EXPECT_EQ(roi_a.nodes[i].id, roi_b.nodes[i].id);
    }
  }
}

TEST(IncrementalCompactionTest, UntouchedSegmentsStaySharedAcrossFold) {
  HeteroGraph g = MakeContentGraph(14, 31);
  DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opt);
  auto base_before = dyn.base();
  auto pinned = dyn.MakeSnapshot();  // old-base reader across the fold

  // Dirty only segment 0 (nodes 1<->2 live in rows 0..3).
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  const uint64_t gen_before = dyn.base_generation();
  auto folded = dyn.CompactSegments({0});
  ASSERT_TRUE(folded.ok());
  auto base_after = dyn.base();

  // Persistent-structure sharing: only segment 0 was rebuilt.
  EXPECT_NE(base_after, base_before);
  EXPECT_NE(base_after->segment_ptr(0), base_before->segment_ptr(0));
  for (int64_t s = 1; s < 4; ++s) {
    EXPECT_EQ(base_after->segment_ptr(s), base_before->segment_ptr(s));
    EXPECT_EQ(base_after->segment_generation(s),
              base_before->segment_generation(s));
  }
  EXPECT_EQ(dyn.base_generation(), gen_before + 1);
  EXPECT_EQ(base_after->generation_of(1), gen_before + 1);

  // The fold landed: new snapshots read the merged weight from the base
  // with no overlay left.
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  auto snap = dyn.MakeSnapshot();
  EXPECT_FALSE(snap.MaybeHasDelta(1));
  // +2 on the (1,2) half; NEAR, not EQ — the fold re-rounds each coalesced
  // weight to float once (random base weights are not float-exact sums).
  EXPECT_NEAR(snap.TotalWeight(1), pinned.TotalWeight(1) + 2.0, 1e-4);
  // The pinned old-base snapshot still reads its (pre-fold) segment 0 rows
  // — zero-copy spans stayed valid; it lost only delta visibility (the
  // short-read-lease contract).
  EXPECT_EQ(&pinned.base(), base_before.get());
  EXPECT_EQ(pinned.base().degree(1), base_before->degree(1));
}

TEST(IncrementalCompactionTest, SafeTruncateEpochBoundsPartialFolds) {
  HeteroGraph g = MakeContentGraph(14, 13);
  DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opt);

  // Epoch e1 touches segment 0 (edge 0-1); epoch e2 touches segment 2
  // (edge 8-9).
  auto b1 = MakeBatch(&log, 0, {{0, 1, RelationKind::kClick, 1.0f, 0}}, &dyn);
  ASSERT_TRUE(dyn.ApplyBatch(b1).ok());
  auto b2 = MakeBatch(&log, 0, {{8, 9, RelationKind::kClick, 1.0f, 0}}, &dyn);
  ASSERT_TRUE(dyn.ApplyBatch(b2).ok());

  // Folding only segment 2 leaves epoch e1's halves pending in segment 0:
  // the log may truncate through e1 - 1 only.
  ASSERT_TRUE(dyn.CompactSegments({2}).ok());
  EXPECT_EQ(dyn.SafeTruncateEpoch(), b1.epoch - 1);
  log.Truncate(dyn.SafeTruncateEpoch());
  EXPECT_EQ(log.ReadSince(0).size(), 2u);  // both batches survive

  // After segment 0 folds too, everything is absorbed.
  ASSERT_TRUE(dyn.CompactSegments({0}).ok());
  EXPECT_EQ(dyn.SafeTruncateEpoch(), dyn.watermark_epoch());
  log.Truncate(dyn.SafeTruncateEpoch());
  EXPECT_EQ(log.ReadSince(0).size(), 0u);
}

// --- Per-type capacity limits (id-space growth) -----------------------------

TEST(NodeCapacityTest, TypedAllocationEnforcesPerTypeCap) {
  HeteroGraph g = MakeTinyGraph(2);  // 2 base items
  DynamicHeteroGraphOptions opt;
  opt.max_nodes_per_type[static_cast<int>(NodeType::kItem)] = 4;  // +2 room
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opt);
  IngestOptions iopt;
  iopt.num_shards = 1;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  auto id1 = pipeline.OfferNewNode(MakeItemEvent());
  auto id2 = pipeline.OfferNewNode(MakeItemEvent());
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(dyn.num_nodes_of_type(NodeType::kItem), 4);

  const int64_t allocated_before = dyn.num_nodes_allocated();
  auto id3 = pipeline.OfferNewNode(MakeItemEvent());
  ASSERT_FALSE(id3.ok());
  EXPECT_EQ(id3.status().code(), StatusCode::kOutOfRange);
  // The rejection burned nothing: no id, no record, no pending epoch.
  EXPECT_EQ(dyn.num_nodes_allocated(), allocated_before);
  EXPECT_EQ(dyn.num_nodes_of_type(NodeType::kItem), 4);
  int64_t rejected = 0;
  for (int64_t c : pipeline.Stats().rejected_capacity) rejected += c;
  EXPECT_EQ(rejected, 1);

  // Uncapped types still mint, and ingest over the minted ids still works.
  NodeEvent user;
  user.type = NodeType::kUser;
  user.content = std::vector<float>(kDim, 0.5f);
  auto uid = pipeline.OfferNewNode(std::move(user));
  ASSERT_TRUE(uid.ok());
  graph::SessionRecord session;
  session.user = uid.value();
  session.query = 1;
  session.clicks = {id1.value()};
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();
  EXPECT_GT(dyn.MakeSnapshot().Degree(id1.value()), 0);
  pipeline.Stop();
}

// --- TTL'd truncation of the delta log itself -------------------------------

TEST(DeltaLogTtlTest, TruncateExpiredDropsOnlyFullyAgedAppliedBatches) {
  GraphDeltaLog log(2);
  // Old batch: every event aged out. Mixed batch: one event still fresh.
  log.Append(0, {{0, 1, RelationKind::kClick, 1.0f, /*timestamp=*/100}});
  const uint64_t mixed =
      log.Append(1, {{0, 1, RelationKind::kClick, 1.0f, 100},
                     {1, 2, RelationKind::kClick, 1.0f, 950}});
  const uint64_t fresh_epoch =
      log.Append(0, {{1, 2, RelationKind::kSession, 1.0f, 990}});

  DecaySpec spec = DecaySpec::Window(/*ttl_seconds=*/200,
                                     /*half_life_seconds=*/0.0);
  // max_epoch below the old batch: nothing droppable yet (unapplied guard).
  EXPECT_EQ(log.TruncateExpired(spec, /*now=*/1000, /*max_epoch=*/0), 0);
  // Applied watermark covers everything: only the fully-aged batch drops.
  EXPECT_EQ(log.TruncateExpired(spec, 1000, fresh_epoch), 1);
  auto left = log.ReadSince(0);
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0].epoch, mixed);
  EXPECT_EQ(log.Stats().total_events, 3);
  // No TTL configured => never drops.
  EXPECT_EQ(log.TruncateExpired(DecaySpec{}, 1000000, fresh_epoch), 0);
}

// --- Node-TTL groundwork (cold-start reclamation at fold time) --------------

TEST(ColdNodeTtlTest, IsolatedColdNodesFoldToStubsAndReclaim) {
  HeteroGraph g = MakeTinyGraph(2);
  DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  opt.cold_node_ttl_seconds = 100;
  GraphDeltaLog log(1);
  DynamicHeteroGraph dyn(&g, opt);
  ManualClock clock;
  clock.SetSeconds(1000);
  dyn.SetClock(&clock);

  // Cold arrival: a node that never accumulates an edge. Warm arrival: a
  // node introduced with a click (lifetime traffic > cold_node_max_degree).
  auto cold_batch = MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent(0.4f, 1000)});
  ASSERT_TRUE(dyn.ApplyBatch(cold_batch).ok());
  const NodeId cold_id = cold_batch.node_events[0].id;
  auto warm_batch = MakeNodeBatch(
      &log, 0, &dyn, {MakeItemEvent(0.6f, 1000)},
      {{1, -1, RelationKind::kClick, 2.0f, 1000}});
  ASSERT_TRUE(dyn.ApplyBatch(warm_batch).ok());
  const NodeId warm_id = warm_batch.node_events[0].id;

  // Before the TTL elapses, a fold keeps the cold node's payload.
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.expired_cold_nodes(), 0);
  auto snap1 = dyn.MakeSnapshot();
  EXPECT_FLOAT_EQ(snap1.content(cold_id)[0], 0.4f);

  // A later fold past the TTL reclaims it: stub row, zeroed content, type
  // retained, id-space stable; the warm node is untouched.
  clock.AdvanceSeconds(200);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.expired_cold_nodes(), 0)
      << "already-folded rows must not re-qualify";
  // Reclamation happens at the fold that first absorbs the node past its
  // TTL — mint a fresh cold node and age it out.
  auto cold2 = MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent(0.7f, 1200)});
  ASSERT_TRUE(dyn.ApplyBatch(cold2).ok());
  const NodeId cold2_id = cold2.node_events[0].id;
  clock.AdvanceSeconds(300);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.expired_cold_nodes(), 1);
  auto snap2 = dyn.MakeSnapshot();
  ASSERT_GT(snap2.num_nodes(), cold2_id);
  EXPECT_EQ(snap2.node_type(cold2_id), NodeType::kItem);
  EXPECT_EQ(snap2.Degree(cold2_id), 0);
  EXPECT_FLOAT_EQ(snap2.content(cold2_id)[0], 0.0f);  // reclaimed payload
  EXPECT_GT(snap2.Degree(warm_id), 0);
  EXPECT_FLOAT_EQ(snap2.content(warm_id)[0], 0.6f);
}

// --- CompactSegments racing online node minting (TSan) ----------------------

TEST(IncrementalCompactionTest, SegmentFoldsRaceOfferNewNode) {
  HeteroGraph g = MakeContentGraph(14, 3);
  DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  GraphDeltaLog log(2);
  DynamicHeteroGraph dyn(&g, opt);
  IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  constexpr int kMints = 24;
  std::vector<NodeId> minted(kMints, -1);
  std::thread minter([&] {
    Rng rng(17);
    for (int i = 0; i < kMints; ++i) {
      auto id = pipeline.OfferNewNode(
          MakeItemEvent(0.2f + 0.01f * i),
          {{1, -1, RelationKind::kClick, 1.0f, 0}});
      ASSERT_TRUE(id.ok());
      minted[i] = id.value();
      graph::SessionRecord session;
      session.user = 0;
      session.query = 1;
      session.clicks = {minted[rng.Uniform(i + 1)]};
      pipeline.Offer(session);
    }
  });
  std::atomic<bool> stop_readers{false};
  std::thread reader([&] {
    Rng rng(29);
    while (!stop_readers.load(std::memory_order_acquire)) {
      auto snap = dyn.MakeSnapshot();
      const NodeId n = static_cast<NodeId>(rng.Uniform(snap.num_nodes()));
      snap.SampleNeighbor(n, &rng);
      std::vector<graph::NeighborEntry> out;
      snap.Neighbors(1, &out);
    }
  });
  // Rotate incremental folds across segments (including the growing
  // frontier) while minting and reads are in flight — the quiescence
  // handshake parks OfferNewNode's producer-side apply at batch
  // boundaries.
  for (int round = 0; round < 12; ++round) {
    auto folded = dyn.CompactSegments({round % 5});
    ASSERT_TRUE(folded.ok());
  }
  minter.join();
  stop_readers.store(true, std::memory_order_release);
  reader.join();
  pipeline.Flush();
  ASSERT_TRUE(dyn.Compact().ok());

  // Conservation: every minted node survived the folds with its intro
  // click's mass, renumber-free.
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.num_nodes(), g.num_nodes() + kMints);
  for (NodeId id : minted) {
    ASSERT_GE(id, g.num_nodes());
    EXPECT_EQ(snap.node_type(id), NodeType::kItem);
    EXPECT_GE(snap.TotalWeight(id), 1.0 - 1e-6);
  }
  pipeline.Stop();
}

}  // namespace
}  // namespace streaming
}  // namespace zoomer
