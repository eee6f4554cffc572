// Tests for the distributed graph engine: sharding, replica groups, update
// fanout, freshness routing, and replica kill/revive.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "graph/graph_view.h"
#include "obs/metrics.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace {

const data::RetrievalDataset& Dataset() {
  static const data::RetrievalDataset* ds = [] {
    data::TaobaoGeneratorOptions opt;
    opt.num_users = 60;
    opt.num_queries = 40;
    opt.num_items = 100;
    opt.num_sessions = 400;
    opt.num_categories = 5;
    opt.content_dim = 8;
    opt.seed = 31;
    return new data::RetrievalDataset(GenerateTaobaoDataset(opt));
  }();
  return *ds;
}

// --- GraphShard / DistributedGraphEngine ---------------------------------------

/// One request through a shard's batched call, over the offline graph.
StatusOr<engine::SampleResponse> ShardSample(const engine::GraphShard& shard,
                                             const graph::HeteroGraph& g,
                                             const engine::SampleRequest& req) {
  return shard.SampleMany(graph::CsrGraphView(g), {&req, 1})[0];
}

TEST(GraphShardTest, PartitionCoversAllNodesDisjointly) {
  const auto& ds = Dataset();
  const int num_shards = 4;
  int64_t total = 0;
  for (int s = 0; s < num_shards; ++s) {
    engine::GraphShard shard(&ds.graph, s, num_shards);
    total += shard.num_owned_nodes();
  }
  EXPECT_EQ(total, ds.graph.num_nodes());
}

TEST(GraphShardTest, PartitionIsBalanced) {
  const auto& ds = Dataset();
  const int num_shards = 4;
  const double expected = ds.graph.num_nodes() / double(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    engine::GraphShard shard(&ds.graph, s, num_shards);
    EXPECT_NEAR(shard.num_owned_nodes(), expected, expected * 0.5)
        << "shard " << s;
  }
}

TEST(GraphShardTest, RejectsForeignAndInvalidNodes) {
  const auto& ds = Dataset();
  engine::GraphShard shard(&ds.graph, 0, 4);
  // Find a node owned by another shard.
  graph::NodeId foreign = -1;
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (!shard.Owns(v)) {
      foreign = v;
      break;
    }
  }
  ASSERT_NE(foreign, -1);
  engine::SampleRequest req;
  req.node = foreign;
  EXPECT_FALSE(ShardSample(shard, ds.graph, req).ok());
  req.node = ds.graph.num_nodes() + 5;
  EXPECT_FALSE(ShardSample(shard, ds.graph, req).ok());
}

TEST(GraphShardTest, SampleReturnsRealNeighbors) {
  const auto& ds = Dataset();
  const int num_shards = 2;
  // Find a node with degree > 0 and sample from its owning shard.
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.degree(v) == 0) continue;
    const int s = engine::GraphShard::NodeShard(v, num_shards);
    engine::GraphShard shard(&ds.graph, s, num_shards);
    engine::SampleRequest req;
    req.node = v;
    req.k = 5;
    req.rng_seed = 9;
    auto resp = ShardSample(shard, ds.graph, req);
    ASSERT_TRUE(resp.ok());
    ASSERT_FALSE(resp.value().neighbors.empty());
    auto ids = ds.graph.neighbor_ids(v);
    for (auto nb : resp.value().neighbors) {
      EXPECT_NE(std::find(ids.begin(), ids.end(), nb), ids.end());
    }
    // Distinct neighbors.
    std::set<graph::NodeId> uniq(resp.value().neighbors.begin(),
                                 resp.value().neighbors.end());
    EXPECT_EQ(uniq.size(), resp.value().neighbors.size());
    break;
  }
}

TEST(DistributedGraphEngineTest, RoutesAndServesConcurrently) {
  const auto& ds = Dataset();
  engine::EngineOptions opt;
  opt.num_shards = 4;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&ds.graph, opt);
  EXPECT_EQ(eng.num_replicas(), 8);
  // Four client threads, 25 blocking requests each.
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (graph::NodeId v = t; v < 100; v += 4) {
        engine::SampleRequest req;
        req.node = v;
        req.k = 3;
        req.rng_seed = static_cast<uint64_t>(v);
        if (eng.Sample(req).ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load(), 100);
  auto stats = eng.Stats();
  EXPECT_EQ(stats.total_requests, 100);
  EXPECT_EQ(stats.requests_per_replica.size(), 8u);
}

TEST(DistributedGraphEngineTest, SampleManyMatchesSingleRequests) {
  // Batched dispatch groups requests per shard (one snapshot pin + one
  // worker hop per group) but must return exactly what per-request calls
  // return under the same per-request seeds, and a bad node must fail only
  // its own slot.
  const auto& ds = Dataset();
  engine::EngineOptions opt;
  opt.num_shards = 4;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&ds.graph, opt);
  std::vector<engine::SampleRequest> reqs;
  for (graph::NodeId v = 0; v < 60; ++v) {
    engine::SampleRequest req;
    req.node = v;
    req.k = 3;
    req.rng_seed = 1000 + static_cast<uint64_t>(v);
    reqs.push_back(req);
  }
  engine::SampleRequest bad;
  bad.node = ds.graph.num_nodes() + 5;
  bad.k = 3;
  reqs.push_back(bad);
  auto batched = eng.SampleMany({reqs.data(), reqs.size()});
  ASSERT_EQ(batched.size(), reqs.size());
  EXPECT_FALSE(batched.back().ok());
  for (size_t i = 0; i + 1 < reqs.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    auto single = eng.Sample(reqs[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batched[i].value().neighbors, single.value().neighbors)
        << "node " << reqs[i].node;
  }
  EXPECT_GT(eng.Stats().total_requests, 60);
}

// Word-wise FNV-1a over engine responses: status, neighbor ids, weight bits.
uint64_t HashResponses(const std::vector<StatusOr<engine::SampleResponse>>& rs) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  for (const auto& r : rs) {
    if (!r.ok()) {
      mix(~0ull);
      continue;
    }
    mix(r.value().neighbors.size());
    for (graph::NodeId nb : r.value().neighbors) mix(static_cast<uint64_t>(nb));
    for (float w : r.value().weights) {
      uint32_t bits = 0;
      std::memcpy(&bits, &w, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

TEST(DistributedGraphEngineTest, ResponsesPinnedAtFixedSeed) {
  // Fixed-seed response hashes for the three ways a request is served: a
  // replica that has applied nothing (base rows), a replica after ingest
  // (delta rows), and the primary fallback. The constants were captured
  // before the engine's static and streaming read paths became one.
  const graph::HeteroGraph& g = Dataset().graph;
  std::vector<engine::SampleRequest> reqs;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    reqs.push_back({v, 1 + static_cast<int>(v % 7),
                    5 + static_cast<uint64_t>(v) * 977, 0});
  }
  // The log and the primary must outlive the engine's appliers.
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph primary(&g);
  obs::MetricsRegistry reg;
  engine::EngineOptions opt;
  opt.num_shards = 3;
  opt.replication_factor = 2;
  opt.freshness_wait_micros = 0;
  opt.registry = &reg;
  engine::DistributedGraphEngine eng(&g, opt);
  const uint64_t base_hash = HashResponses(eng.SampleMany(reqs));
  EXPECT_EQ(base_hash, 0x8939407ee6721d81ull);
  std::vector<StatusOr<engine::SampleResponse>> singles;
  for (const auto& req : reqs) singles.push_back(eng.Sample(req));
  EXPECT_EQ(HashResponses(singles), base_hash);

  eng.ConnectUpdateFanout(&log, &primary);
  Rng rng(5);
  for (int b = 0; b < 20; ++b) {
    streaming::DeltaBatch batch;
    for (int e = 0; e < 40; ++e) {
      const graph::NodeId src = rng.UniformInt(0, g.num_nodes() - 1);
      const graph::NodeId dst = rng.UniformInt(0, g.num_nodes() - 1);
      const float w = 0.25f * static_cast<float>(rng.UniformInt(1, 8));
      if (src != dst) {
        batch.events.push_back({src, dst, graph::RelationKind::kClick, w, 0});
      }
    }
    batch.epoch = log.Append(0, batch.events, [&](uint64_t epoch) {
      primary.NoteEpochIssued(epoch);
    });
    ASSERT_TRUE(primary.ApplyBatch(batch).ok());
    eng.PublishDelta(0, batch.epoch, /*all_shards=*/true);
  }
  for (int s = 0; s < opt.num_shards; ++s) {
    for (int r = 0; r < opt.replication_factor; ++r) {
      ASSERT_TRUE(eng.AwaitReplicaCatchUp(s, r, 5'000'000));
    }
  }
  const auto snap = primary.MakeSnapshot();
  int64_t delta_rows = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    delta_rows += snap.DeltaDegree(v) > 0;
  }
  EXPECT_GT(delta_rows, g.num_nodes() / 2);
  const uint64_t replica_hash = HashResponses(eng.SampleMany(reqs));
  EXPECT_NE(replica_hash, base_hash);
  EXPECT_EQ(replica_hash, 0x829d82d45d365ce9ull);
  EXPECT_EQ(eng.Stats().stale_fallback_reads, 0);

  // A floor no replica can meet: served off the primary, which holds the
  // same rows as each replica for the nodes that replica owns.
  for (auto& req : reqs) req.min_epoch = primary.watermark_epoch() + 1;
  const uint64_t fallback_hash = HashResponses(eng.SampleMany(reqs));
  EXPECT_GT(eng.Stats().stale_fallback_reads, 0);
  EXPECT_EQ(fallback_hash, replica_hash);
  EXPECT_EQ(fallback_hash, 0x829d82d45d365ce9ull);
}

TEST(DistributedGraphEngineTest, ReplicationSpreadsLoad) {
  const auto& ds = Dataset();
  engine::EngineOptions opt;
  opt.num_shards = 1;  // all requests to one shard
  opt.replication_factor = 3;
  opt.simulated_rpc_micros = 100;  // keep replicas busy so routing spreads
  engine::DistributedGraphEngine eng(&ds.graph, opt);
  // Nine concurrent clients, 10 blocking requests each: least-inflight
  // routing must spread them over the three replicas.
  std::vector<std::thread> clients;
  for (int t = 0; t < 9; ++t) {
    clients.emplace_back([&, t] {
      for (int i = t; i < 90; i += 9) {
        engine::SampleRequest req;
        req.node = i % ds.graph.num_nodes();
        req.k = 2;
        eng.Sample(req);
      }
    });
  }
  for (auto& c : clients) c.join();
  auto stats = eng.Stats();
  // Every replica should have served a meaningful share.
  for (int64_t r : stats.requests_per_replica) {
    EXPECT_GT(r, 10) << "replica starved";
  }
}

TEST(GraphShardTest, KnuthHashBalancesSyntheticIdRanges) {
  // The Knuth multiplicative hash must spread both dense id ranges (offline
  // builds number nodes 0..n) and strided ones (a type-partitioned or
  // sparsely minted id-space) evenly — a plain modulo would alias the
  // strided case onto a subset of shards.
  for (int num_shards : {4, 8}) {
    for (int64_t stride : {int64_t{1}, int64_t{16}}) {
      const int64_t n = 40000;
      std::vector<int64_t> counts(num_shards, 0);
      for (int64_t i = 0; i < n; ++i) {
        const graph::NodeId id = 7 + i * stride;
        ++counts[engine::GraphShard::NodeShard(id, num_shards)];
      }
      const double expected = static_cast<double>(n) / num_shards;
      for (int s = 0; s < num_shards; ++s) {
        EXPECT_NEAR(counts[s], expected, expected * 0.1)
            << "shards=" << num_shards << " stride=" << stride
            << " shard=" << s;
      }
    }
  }
}

// --- Replica groups: fanout, freshness routing, failure recovery ----------

constexpr int kStreamDim = 8;

/// user 0, query 1, items 2..(2+num_items): base click edges 0-1 and from
/// the query to the first `base_items` items; the rest start isolated, so a
/// streamed edge is their entire neighborhood (deterministic visibility
/// checks: a replica that misses the write returns an empty sample).
graph::HeteroGraph MakeStreamGraph(int num_items, int base_items) {
  graph::HeteroGraphBuilder b(kStreamDim);
  const std::vector<float> content(kStreamDim, 0.3f);
  b.AddNode(graph::NodeType::kUser, content, {0});
  b.AddNode(graph::NodeType::kQuery, content, {1});
  for (int i = 0; i < num_items; ++i) {
    b.AddNode(graph::NodeType::kItem, content, {2});
  }
  EXPECT_TRUE(b.AddEdge(0, 1, graph::RelationKind::kClick, 1.0f).ok());
  for (int i = 0; i < base_items; ++i) {
    EXPECT_TRUE(b.AddEdge(1, 2 + static_cast<graph::NodeId>(i),
                          graph::RelationKind::kClick, 1.0f)
                    .ok());
  }
  return b.Build();
}

TEST(ReplicaGroupTest, PrimaryAndReplicasShareTheBaseSegments) {
  // Default options: the primary graph and every replica adopt the offline
  // graph's segments instead of copying its rows.
  const graph::HeteroGraph& g = Dataset().graph;
  ASSERT_GT(g.num_segments(), 1);
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = 1;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&g, opt);
  EXPECT_EQ(eng.ReplicaGraph(0, 0), nullptr);
  eng.ConnectUpdateFanout(&log, &primary);
  std::vector<const streaming::DynamicHeteroGraph*> graphs = {&primary};
  for (int r = 0; r < 2; ++r) graphs.push_back(eng.ReplicaGraph(0, r));
  for (const streaming::DynamicHeteroGraph* dyn : graphs) {
    ASSERT_NE(dyn, nullptr);
    const auto base = dyn->base();
    ASSERT_EQ(base->num_segments(), g.num_segments());
    for (int64_t s = 0; s < g.num_segments(); ++s) {
      EXPECT_EQ(base->segment_ptr(s), g.segment_ptr(s)) << "segment " << s;
    }
  }

  // Any other span repartitions by row copies; reads stay identical.
  streaming::DynamicHeteroGraphOptions gopt;
  gopt.segment_span = g.segment_span() / 2;
  streaming::DynamicHeteroGraph split(&g, gopt);
  EXPECT_EQ(split.base()->segment_span(), g.segment_span() / 2);
  EXPECT_NE(split.base()->segment_ptr(0), g.segment_ptr(0));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = split.base()->neighbor_ids(v);
    const auto b = g.neighbor_ids(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ReplicaGroupTest, FanoutCatchesEveryReplicaUp) {
  graph::HeteroGraph g = MakeStreamGraph(12, 4);
  const int kShards = 2;
  streaming::GraphDeltaLog log(kShards);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = kShards;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&g, opt);
  eng.ConnectUpdateFanout(&log, &primary);

  streaming::IngestOptions iopt;
  iopt.num_shards = kShards;
  iopt.batch_size = 4;
  streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
  pipe.Start();
  for (int i = 0; i < 20; ++i) {
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {6 + (i % 8), 6 + ((i + 1) % 8)};
    ASSERT_TRUE(pipe.Offer(session));
  }
  pipe.Flush();

  for (int s = 0; s < kShards; ++s) {
    for (int r = 0; r < opt.replication_factor; ++r) {
      EXPECT_TRUE(eng.AwaitReplicaCatchUp(s, r, 5'000'000))
          << "shard" << s << ".r" << r << " never caught up";
    }
  }
  auto stats = eng.Stats();
  EXPECT_GT(stats.primary_watermark, 0u);
  ASSERT_EQ(stats.replicas.size(), 4u);
  for (const auto& rs : stats.replicas) {
    EXPECT_TRUE(rs.alive);
    EXPECT_EQ(rs.watermark, stats.primary_watermark)
        << "shard" << rs.shard << ".r" << rs.replica;
  }
  // Replica-local views serve the streamed edges: item 6 started isolated,
  // so its only neighbors are from fanned-out batches.
  engine::SampleRequest req;
  req.node = 6;
  req.k = 10;
  req.rng_seed = 11;
  auto resp = eng.Sample(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().neighbors.empty());
  pipe.Stop();
}

TEST(ReplicaGroupTest, KillReviveReplaysLogAndDrainsLag) {
  graph::HeteroGraph g = MakeStreamGraph(16, 4);
  obs::MetricsRegistry reg;
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = 1;
  opt.replication_factor = 2;
  opt.registry = &reg;
  engine::DistributedGraphEngine eng(&g, opt);
  eng.ConnectUpdateFanout(&log, &primary);

  streaming::IngestOptions iopt;
  iopt.num_shards = 1;
  iopt.batch_size = 2;
  iopt.registry = &reg;
  streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
  pipe.Start();
  auto offer = [&](int i) {
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {6 + (i % 12)};
    ASSERT_TRUE(pipe.Offer(session));
  };
  // Phase 1: both replicas catch up.
  for (int i = 0; i < 10; ++i) offer(i);
  pipe.Flush();
  ASSERT_TRUE(eng.AwaitReplicaCatchUp(0, 0, 5'000'000));
  ASSERT_TRUE(eng.AwaitReplicaCatchUp(0, 1, 5'000'000));
  const uint64_t phase1_wm = eng.ReplicaWatermark(0, 1);

  // Kill r1 mid-stream; phase 2 lands only on the survivor + primary.
  eng.KillReplica(0, 1);
  EXPECT_FALSE(eng.IsReplicaAlive(0, 1));
  EXPECT_EQ(eng.Stats().dead_replicas, 1);
  const int64_t dead_requests_at_kill = eng.Stats().requests_per_replica[1];
  for (int i = 10; i < 30; ++i) offer(i);
  pipe.Flush();
  ASSERT_TRUE(eng.AwaitReplicaCatchUp(0, 0, 5'000'000));
  auto stats = eng.Stats();
  EXPECT_EQ(stats.replicas[1].watermark, phase1_wm);  // applier parked
  EXPECT_LT(stats.replicas[1].watermark, stats.primary_watermark);

  // Serving stays up, degraded: every request routes to the survivor, none
  // to the dead replica after detection.
  for (int i = 0; i < 50; ++i) {
    engine::SampleRequest req;
    req.node = 1;
    req.k = 4;
    req.rng_seed = static_cast<uint64_t>(i);
    EXPECT_TRUE(eng.Sample(req).ok());
  }
  stats = eng.Stats();
  EXPECT_EQ(stats.requests_per_replica[1], dead_requests_at_kill);
  EXPECT_EQ(stats.killed_inflight_failures, 0);  // none were in flight

  // The dead replica's lag gauge keeps growing (appliers refresh it even
  // while parked) and the dead-replica gauge reads 1. Gauge refresh rides
  // the applier's 500µs wakeup, so poll.
  auto gauge = [&](const char* name) -> double {
    auto snap = reg.Snapshot();
    const obs::MetricPoint* p = snap.Find(name);
    return p == nullptr ? -1.0 : p->value;
  };
  bool lag_visible = false;
  for (int i = 0; i < 200 && !lag_visible; ++i) {
    lag_visible = gauge("engine.replica_watermark_lag.shard0.r1") > 0 &&
                  gauge("engine.dead_replicas") == 1.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(lag_visible);

  // Revive: the applier replays the delta log from its frozen cursor (the
  // registered consumer pinned the tail) until watermark lag returns to 0.
  eng.ReviveReplica(0, 1);
  EXPECT_TRUE(eng.AwaitReplicaCatchUp(0, 1, 5'000'000));
  EXPECT_EQ(eng.ReplicaWatermark(0, 1), eng.Stats().primary_watermark);
  bool lag_drained = false;
  for (int i = 0; i < 200 && !lag_drained; ++i) {
    lag_drained = gauge("engine.replica_watermark_lag.shard0.r1") == 0.0 &&
                  gauge("engine.replica_watermark_lag") == 0.0 &&
                  gauge("engine.dead_replicas") == 0.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(lag_drained);

  // The revived replica really rebuilt state: kill the survivor so every
  // read lands on r1, and check a phase-2-only streamed edge is servable
  // (node 16 was first touched after the kill — i=10 maps to 6+10 — so its
  // neighborhood exists on r1 only via log replay).
  eng.KillReplica(0, 0);
  engine::SampleRequest req;
  req.node = 16;
  req.k = 10;
  req.rng_seed = 3;
  auto resp = eng.Sample(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().neighbors.empty());
  pipe.Stop();
}

TEST(ReplicaGroupTest, WholeGroupDeadFailsFastAndRecovers) {
  graph::HeteroGraph g = MakeStreamGraph(8, 4);
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = 1;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&g, opt);
  eng.ConnectUpdateFanout(&log, &primary);
  eng.KillReplica(0, 0);
  eng.KillReplica(0, 1);
  engine::SampleRequest req;
  req.node = 1;
  req.k = 2;
  auto resp = eng.Sample(req);
  EXPECT_FALSE(resp.ok());
  eng.ReviveReplica(0, 0);
  EXPECT_TRUE(eng.Sample(req).ok());
}

TEST(ReplicaGroupTest, ReadYourWritesNeverMissesSessionEdge) {
  // Regression for the read-your-writes guarantee: write an edge, then
  // immediately sample with min_epoch = the write's epoch. Replicas apply
  // asynchronously and may lag, but the router must only use a replica
  // whose watermark covers the write — or fall back to the primary — so
  // the edge is visible on EVERY iteration, not just eventually.
  graph::HeteroGraph g = MakeStreamGraph(120, 4);
  const int kShards = 2;
  streaming::GraphDeltaLog log(kShards);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = kShards;
  opt.replication_factor = 2;
  opt.freshness_wait_micros = 300;  // exercise the primary-fallback path too
  engine::DistributedGraphEngine eng(&g, opt);
  eng.ConnectUpdateFanout(&log, &primary);

  streaming::IngestOptions iopt;
  iopt.num_shards = kShards;
  iopt.batch_size = 8;
  streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
  std::atomic<uint64_t> last_write_epoch{0};
  pipe.AddUpdateListener(
      [&](uint64_t epoch, const std::vector<graph::NodeId>&) {
        uint64_t prev = last_write_epoch.load(std::memory_order_relaxed);
        while (epoch > prev &&
               !last_write_epoch.compare_exchange_weak(prev, epoch)) {
        }
      });
  pipe.Start();

  for (int i = 0; i < 100; ++i) {
    // Item 6+i starts isolated: the session edge below is its entire
    // neighborhood, so a stale read returns an empty sample.
    const graph::NodeId item = 6 + i;
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {item};
    ASSERT_TRUE(pipe.Offer(session));
    pipe.Flush();  // applied to the primary; replicas lag asynchronously
    engine::SampleRequest req;
    req.node = item;
    req.k = 4;
    req.rng_seed = static_cast<uint64_t>(i);
    req.min_epoch = last_write_epoch.load(std::memory_order_acquire);
    auto resp = eng.Sample(req);
    ASSERT_TRUE(resp.ok()) << "iteration " << i;
    EXPECT_FALSE(resp.value().neighbors.empty())
        << "read-your-writes miss at iteration " << i;
  }
  pipe.Stop();
}

TEST(ReplicaGroupTest, KillReplicaRacesIngestAndSampling) {
  // Stress for TSan: kills and revivals race live ingest, replica appliers,
  // and sampling traffic. Correctness bar: no data race, every future
  // resolves (ok or Unavailable), and after the dust settles every revived
  // replica converges to the primary watermark.
  graph::HeteroGraph g = MakeStreamGraph(32, 8);
  streaming::GraphDeltaLog log(2);
  streaming::DynamicHeteroGraph primary(&g);
  engine::EngineOptions opt;
  opt.num_shards = 2;
  opt.replication_factor = 2;
  engine::DistributedGraphEngine eng(&g, opt);
  eng.ConnectUpdateFanout(&log, &primary);
  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
  pipe.Start();

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      graph::SessionRecord session;
      session.user = 0;
      session.query = 1;
      session.clicks = {6 + (i % 24), 6 + ((i * 7) % 24)};
      pipe.Offer(session);
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread chaos([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int s = round % 2;
      const int r = (round / 2) % 2;
      eng.KillReplica(s, r);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      eng.ReviveReplica(s, r);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++round;
    }
  });
  std::vector<std::thread> samplers;
  std::atomic<int64_t> served{0};
  for (int t = 0; t < 2; ++t) {
    samplers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        engine::SampleRequest req;
        req.node = (t == 0 ? 1 : 6 + (i % 24));
        req.k = 4;
        req.rng_seed = static_cast<uint64_t>(i);
        auto resp = eng.Sample(req);  // ok or Unavailable, never hangs
        if (resp.ok()) served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  ingester.join();
  chaos.join();
  for (auto& t : samplers) t.join();
  pipe.Flush();
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 2; ++r) {
      eng.ReviveReplica(s, r);
      EXPECT_TRUE(eng.AwaitReplicaCatchUp(s, r, 10'000'000))
          << "shard" << s << ".r" << r;
    }
  }
  EXPECT_GT(served.load(), 0);
  pipe.Stop();
}

}  // namespace
}  // namespace zoomer
