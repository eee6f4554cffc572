// Tests for the background graph-maintenance subsystem: the janitor
// scheduler (dispatch, background ticking, error isolation), threshold- and
// age-triggered scheduled compaction, the hot-node overlay cache
// (distribution parity, apply/compact invalidation), janitor-triggered
// Compact() racing mid-ingest appends and pinned snapshots, and
// serving-layer NeighborCache coordination through
// OnlineServer::AttachMaintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "baselines/gnn_baselines.h"
#include "common/clock.h"
#include "common/random.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/hot_node_cache.h"
#include "maintenance/maintenance_scheduler.h"
#include "obs/metrics.h"
#include "serving/neighbor_cache.h"
#include "serving/online_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace maintenance {
namespace {

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;
using streaming::DeltaBatch;
using streaming::DynamicGraphView;
using streaming::DynamicHeteroGraph;
using streaming::EdgeEvent;
using streaming::GraphDeltaLog;

constexpr int kDim = 4;

/// user 0, query 1, items 2..2+num_items-1; a single user-query click edge
/// plus optional weighted query-item edges (same fixture as streaming_test).
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

/// Heap-allocated graph: ThreadSanitizer identifies mutexes by address and
/// libstdc++'s std::mutex is trivially destructible (its pthread handle is
/// never destroy()-ed), so stack graphs in consecutive tests can alias
/// mutex addresses and trip false lock-order cycles. Freed heap memory has
/// its TSan metadata cleared, so heap graphs cannot alias.
std::unique_ptr<DynamicHeteroGraph> MakeDynamic(const HeteroGraph* g) {
  return std::make_unique<DynamicHeteroGraph>(g);
}

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

std::map<NodeId, double> SampleFrequencies(
    const DynamicHeteroGraph::Snapshot& snap, NodeId node, int draws,
    uint64_t seed) {
  Rng rng(seed);
  std::map<NodeId, double> freq;
  for (int i = 0; i < draws; ++i) {
    freq[snap.SampleNeighbor(node, &rng)] += 1.0 / draws;
  }
  return freq;
}

// --- MaintenanceScheduler ---------------------------------------------------

class CountingPolicy final : public MaintenancePolicy {
 public:
  CountingPolicy(const char* name, bool acts, bool fails = false)
      : name_(name), acts_(acts), fails_(fails) {}

  const char* name() const override { return name_; }
  StatusOr<MaintenanceReport> RunOnce() override {
    runs.fetch_add(1);
    if (fails_) return Status::Internal("deliberate test failure");
    MaintenanceReport report;
    report.acted = acts_;
    report.touched = {7};
    return report;
  }

  std::atomic<int> runs{0};

 private:
  const char* name_;
  bool acts_;
  bool fails_;
};

TEST(MaintenanceSchedulerTest, RunOnceForTestDispatchesByName) {
  MaintenanceScheduler scheduler;
  auto a = std::make_unique<CountingPolicy>("a", /*acts=*/true);
  auto b = std::make_unique<CountingPolicy>("b", /*acts=*/false);
  CountingPolicy* a_raw = a.get();
  CountingPolicy* b_raw = b.get();
  scheduler.AddPolicy(std::move(a), {});
  scheduler.AddPolicy(std::move(b), {});

  int listener_fires = 0;
  std::string last_policy;
  scheduler.AddListener([&](const std::string& name,
                            const MaintenanceReport& report) {
    ++listener_fires;
    last_policy = name;
    EXPECT_TRUE(report.acted);
  });

  auto r = scheduler.RunOnceForTest("a");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(a_raw->runs.load(), 1);
  EXPECT_EQ(b_raw->runs.load(), 0);
  EXPECT_EQ(listener_fires, 1);  // acted => listener fired
  EXPECT_EQ(last_policy, "a");

  ASSERT_TRUE(scheduler.RunOnceForTest("b").ok());
  EXPECT_EQ(b_raw->runs.load(), 1);
  EXPECT_EQ(listener_fires, 1);  // no action => no fan-out

  EXPECT_FALSE(scheduler.RunOnceForTest("nope").ok());

  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].runs, 1);
  EXPECT_EQ(stats[0].actions, 1);
  EXPECT_EQ(stats[1].actions, 0);
}

TEST(MaintenanceSchedulerTest, JanitorTicksPoliciesInBackground) {
  MaintenanceScheduler scheduler;
  auto p = std::make_unique<CountingPolicy>("ticker", /*acts=*/false);
  CountingPolicy* raw = p.get();
  PolicySchedule schedule;
  schedule.period_ms = 2;
  schedule.jitter_frac = 0.5;
  scheduler.AddPolicy(std::move(p), schedule);
  scheduler.Start();
  for (int i = 0; i < 2000 && raw->runs.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Stop();
  EXPECT_GE(raw->runs.load(), 3);
  EXPECT_GE(scheduler.Stats()[0].runs, 3);
}

TEST(MaintenanceSchedulerTest, ErrorsAreCountedAndDoNotStopTicking) {
  MaintenanceScheduler scheduler;
  auto p = std::make_unique<CountingPolicy>("flaky", /*acts=*/false,
                                            /*fails=*/true);
  CountingPolicy* raw = p.get();
  PolicySchedule schedule;
  schedule.period_ms = 2;
  scheduler.AddPolicy(std::move(p), schedule);
  scheduler.Start();
  for (int i = 0; i < 2000 && raw->runs.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Stop();
  auto stats = scheduler.Stats();
  EXPECT_GE(stats[0].errors, 2);
  EXPECT_EQ(stats[0].actions, 0);
  EXPECT_NE(stats[0].last_error.find("deliberate"), std::string::npos);
}

TEST(MaintenanceSchedulerTest, PassesRecordLatencyAndErrorTelemetry) {
  // Private registry so the assertions see only this scheduler's passes.
  obs::MetricsRegistry reg;
  MaintenanceSchedulerOptions sopt;
  sopt.registry = &reg;
  MaintenanceScheduler scheduler(sopt);
  scheduler.AddPolicy(std::make_unique<CountingPolicy>("ok", /*acts=*/true),
                      {});
  scheduler.AddPolicy(std::make_unique<CountingPolicy>("bad", /*acts=*/false,
                                                       /*fails=*/true),
                      {});
  ASSERT_TRUE(scheduler.RunOnceForTest("ok").ok());
  ASSERT_TRUE(scheduler.RunOnceForTest("ok").ok());
  EXPECT_FALSE(scheduler.RunOnceForTest("bad").ok());

  const obs::RegistrySnapshot snap = reg.Snapshot();
  const obs::MetricPoint* ok_lat = snap.Find("maintenance.pass_latency_us.ok");
  ASSERT_NE(ok_lat, nullptr);
  EXPECT_EQ(ok_lat->hist.count(), 2);
  const obs::MetricPoint* bad_lat =
      snap.Find("maintenance.pass_latency_us.bad");
  ASSERT_NE(bad_lat, nullptr);
  EXPECT_EQ(bad_lat->hist.count(), 1);
  const obs::MetricPoint* errors = snap.Find("maintenance.pass_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value, 1.0);
}

// --- CompactionPolicy -------------------------------------------------------

TEST(CompactionPolicyTest, EntryThresholdTriggersCompactAndTruncate) {
  HeteroGraph g = MakeTinyGraph(8);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 4;  // 2 events = 4 half-edges
  CompactionPolicy policy(&dyn, &log, /*clock=*/nullptr, opt);

  // Below threshold: the policy inspects and stands down.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);
  EXPECT_GT(dyn.num_delta_entries(), 0);

  // Crossing it folds the overlay and truncates the log.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  const uint64_t gen_before = dyn.base_generation();
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_TRUE(r.value().graph_rebuilt);
  EXPECT_EQ(policy.compactions(), 1);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(log.Stats().total_events, 0);
  EXPECT_EQ(dyn.base_generation(), gen_before + 1);
  EXPECT_EQ(dyn.base()->degree(1), 3);  // user + items 2, 3 folded in
}

TEST(CompactionPolicyTest, AgeThresholdFiresOnLogicalClock) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(1000);
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 0;  // entry-count trigger off
  opt.max_delta_age_seconds = 60;
  CompactionPolicy policy(&dyn, &log, &clock, opt);

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 1000}}))
          .ok());
  auto r = policy.RunOnce();  // marks deltas pending at t=1000
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);

  clock.AdvanceSeconds(59);
  ASSERT_TRUE(policy.RunOnce().ok());
  EXPECT_EQ(policy.compactions(), 0);

  clock.AdvanceSeconds(1);  // pending for exactly 60s now
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
}

// --- HotNodeOverlayCache ----------------------------------------------------

TEST(HotNodeCacheTest, MaterializedSamplingMatchesExactWeights) {
  // Base: query 1 -> user 0 (w=1), item 2 (w=1), item 3 (w=3). Deltas: +4
  // on item 4 and +2 on item 3 => exact distribution {0: 1/11, 2: 1/11,
  // 3: 5/11, 4: 4/11}, identical to streaming_test's uncached expectation.
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 3.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 2;
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);  // attaches the cache

  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 4.0f, 0},
                                {1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(cache.size(), 1u);  // node 1 crossed the threshold

  auto snap = dyn.MakeSnapshot();
  auto freq = SampleFrequencies(snap, 1, 60000, 31);
  EXPECT_NEAR(freq[0], 1.0 / 11, 0.01);
  EXPECT_NEAR(freq[2], 1.0 / 11, 0.01);
  EXPECT_NEAR(freq[3], 5.0 / 11, 0.015);
  EXPECT_NEAR(freq[4], 4.0 / 11, 0.015);
  EXPECT_GT(cache.Stats().hits, 0);

  // Batched distinct draws ride the alias table too.
  Rng rng(5);
  auto distinct = snap.SampleDistinctNeighbors(1, 10, &rng);
  EXPECT_GE(distinct.size(), 3u);
  for (NodeId nb : distinct) {
    EXPECT_TRUE(nb == 0 || nb == 2 || nb == 3 || nb == 4);
  }
  EXPECT_EQ(distinct, (std::vector<NodeId>{4, 3, 0, 2}));
  EXPECT_EQ(rng.NextUint64(), 213826401392939457ull);

  // Pinned fixed-seed draws through the hot entry (node 1) beside an
  // uncached overlay row (node 3): the batch and the single-draw loop must
  // both reproduce them and leave the Rng at the same word.
  const std::vector<NodeId> nodes = {1, 3, 1};
  const std::vector<NodeId> pinned = {3, 4, 4, 3, 3, 1, 1, 1,
                                      1, 1, 4, 0, 3, 0, 4};
  Rng many_rng(515), loop_rng(515);
  std::vector<NodeId> many, loop;
  snap.SampleManyNeighbors({nodes.data(), nodes.size()}, 5, &many_rng, &many);
  for (NodeId v : nodes) {
    for (int j = 0; j < 5; ++j) {
      loop.push_back(snap.SampleNeighbor(v, &loop_rng));
    }
  }
  EXPECT_EQ(many, pinned);
  EXPECT_EQ(loop, pinned);
  EXPECT_EQ(many_rng.NextUint64(), 5685162569280510848ull);
  EXPECT_EQ(loop_rng.NextUint64(), 5685162569280510848ull);

  // Neighbors through the cache equals the uncached merge.
  std::vector<graph::NeighborEntry> cached_merge;
  snap.Neighbors(1, &cached_merge);
  cache.Clear();
  std::vector<graph::NeighborEntry> slow_merge;
  dyn.MakeSnapshot().Neighbors(1, &slow_merge);
  ASSERT_EQ(cached_merge.size(), slow_merge.size());
  for (size_t i = 0; i < slow_merge.size(); ++i) {
    EXPECT_EQ(cached_merge[i].neighbor, slow_merge[i].neighbor);
    EXPECT_FLOAT_EQ(cached_merge[i].weight, slow_merge[i].weight);
  }
}

TEST(HotNodeCacheTest, ApplyInvalidatesAndFreshEdgesStayVisible) {
  HeteroGraph g = MakeTinyGraph(6, {1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 1;
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  ASSERT_TRUE(policy.RunOnce().ok());
  ASSERT_GE(cache.size(), 1u);

  // A new batch on the cached node must not serve the stale merge: the
  // apply eagerly evicts, and the version check would reject it anyway.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 5, RelationKind::kClick, 100.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  Rng rng(3);
  int hits5 = 0;
  for (int i = 0; i < 2000; ++i) hits5 += snap.SampleNeighbor(1, &rng) == 5;
  EXPECT_GT(hits5, 1500);  // 100/103 of the mass — never the stale list
  EXPECT_GT(cache.Stats().invalidations, 0);

  // Compaction clears everything.
  ASSERT_TRUE(policy.RunOnce().ok());
  ASSERT_GE(cache.size(), 1u);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(cache.size(), 0u);
}

// --- Janitor-triggered Compact() racing mid-ingest --------------------------

TEST(JanitorRaceTest, ScheduledCompactionRacesIngestAndPinnedSnapshots) {
  // Extends PR 2's quiescence test: compaction is now fired by the
  // maintenance scheduler on a tight jittered period (with the hot-node
  // refresh policy churning the cache alongside) while sessions stream in
  // and reader threads hold pinned snapshots. Every applied half-edge must
  // be conserved across however many folds land mid-ingest.
  HeteroGraph g = MakeTinyGraph(40);
  double base_total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (float w : g.neighbor_weights(v)) base_total += w;
  }
  GraphDeltaLog log(4);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  streaming::IngestOptions iopt;
  iopt.num_shards = 4;
  iopt.batch_size = 8;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  HotNodeCacheOptions copt;
  copt.min_delta_entries = 2;
  HotNodeOverlayCache cache(g.num_nodes(), copt);

  MaintenanceScheduler scheduler;
  CompactionPolicyOptions popt;
  popt.max_delta_entries = 1;  // every janitor tick compacts
  PolicySchedule fast;
  fast.period_ms = 2;
  scheduler.AddPolicy(
      std::make_unique<CompactionPolicy>(&dyn, &log, nullptr, popt), fast);
  scheduler.AddPolicy(std::make_unique<HotNodeRefreshPolicy>(&dyn, &cache),
                      fast);
  scheduler.Start();

  // Readers pin snapshots and sample while folds land. A pinned snapshot
  // may lose delta visibility to a compaction (documented short-lease
  // contract) but must never return an invalid neighbor or crash.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop_readers.load()) {
        auto snap = dyn.MakeSnapshot();
        for (int i = 0; i < 50; ++i) {
          const NodeId nb = snap.SampleNeighbor(1, &rng);
          ASSERT_GE(nb, 0);
          ASSERT_LT(nb, g.num_nodes());
          std::vector<graph::NeighborEntry> merged;
          snap.Neighbors(1, &merged);
          ASSERT_GE(merged.size(), 1u);
        }
      }
    });
  }

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
  stop_readers.store(true);
  for (auto& r : readers) r.join();
  scheduler.Stop();

  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.events_applied, stats.events);
  EXPECT_EQ(pipeline.events_dropped(), 0);
  auto sched_stats = scheduler.Stats();
  EXPECT_GT(sched_stats[0].actions, 0) << "no compaction ever fired";

  // Mass conservation across scheduled folds: every applied event added
  // weight 1 to each endpoint, in the rebuilt CSR or a delta overlay.
  auto snap = dyn.MakeSnapshot();
  double total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) total += snap.TotalWeight(v);
  EXPECT_NEAR(total, base_total + 2.0 * stats.events_applied, 0.5);

  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  pipeline.Stop();
}

TEST(JanitorRaceTest, NodeIngestRacesScheduledCompaction) {
  // Id-space growth under the janitor: the producer keeps minting
  // brand-new item nodes (with their introducing edges) through the
  // pipeline while the scheduler compacts on a tight period and reader
  // threads hold pinned snapshots. Every minted node must survive however
  // many folds land — appended into a rebuilt base or still in the overlay
  // — and no reader may ever observe an id beyond its pin.
  HeteroGraph g = MakeTinyGraph(10);
  GraphDeltaLog log(2);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  MaintenanceScheduler scheduler;
  CompactionPolicyOptions popt;
  popt.max_delta_entries = 1;  // every janitor tick compacts
  PolicySchedule fast;
  fast.period_ms = 2;
  scheduler.AddPolicy(
      std::make_unique<CompactionPolicy>(&dyn, &log, nullptr, popt), fast);
  scheduler.Start();

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(50 + t);
      while (!stop_readers.load()) {
        auto snap = dyn.MakeSnapshot();
        const int64_t pinned = snap.num_nodes();
        for (int i = 0; i < 50; ++i) {
          const NodeId nb = snap.SampleNeighbor(1, &rng);
          ASSERT_GE(nb, 0);
          ASSERT_LT(nb, pinned);
        }
        ASSERT_EQ(snap.num_nodes(), pinned);  // a pin never grows
      }
    });
  }

  const int kMints = 120;
  std::vector<NodeId> minted;
  Rng rng(9);
  for (int i = 0; i < kMints; ++i) {
    streaming::NodeEvent ev;
    ev.type = NodeType::kItem;
    ev.content = std::vector<float>(kDim, 0.2f + 0.5f * rng.UniformFloat());
    ev.slots = {3};
    auto id = pipeline.OfferNewNode(
        std::move(ev), {{1, -1, RelationKind::kClick, 1.0f, 0}});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    minted.push_back(id.value());
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {id.value()};
    ASSERT_TRUE(pipeline.Offer(session));
  }
  pipeline.Flush();
  stop_readers.store(true);
  for (auto& r : readers) r.join();
  scheduler.Stop();

  // Conservation: every minted id resolves with its type, and the weight
  // mass of its introducing click plus one session click survives wherever
  // the folds left it (a fold coalesces the two same-kind clicks into one
  // edge, so half-edge counts may shrink — mass never does).
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.num_nodes(), g.num_nodes() + kMints);
  for (NodeId id : minted) {
    EXPECT_EQ(snap.node_type(id), NodeType::kItem);
    EXPECT_GE(snap.Degree(id), 1);
    EXPECT_GE(snap.TotalWeight(id), 2.0 - 1e-6);
  }
  EXPECT_GT(scheduler.Stats()[0].actions, 0) << "no compaction ever fired";
  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.base()->num_nodes(), g.num_nodes() + kMints);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  pipeline.Stop();
}

// --- Typed neighbor ranges (GraphView::NeighborsOfType) ---------------------

TEST(NeighborsOfTypeTest, DynamicViewMergesTypedRangeWithoutFullMerge) {
  // Base: query 1 -> user 0 (w=1), items 2, 3 (w=1 each). Deltas: a new
  // item edge (1, 4), a weight increment on the existing (1, 2), and a
  // user-query increment on (0, 1).
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 2.0f, 0},
                                {1, 2, RelationKind::kClick, 3.0f, 0},
                                {0, 1, RelationKind::kClick, 5.0f, 0}}))
          .ok());
  DynamicGraphView view(&dyn);

  graph::NeighborScratch scratch;
  auto items = view.NeighborsOfType(1, NodeType::kItem, &scratch);
  ASSERT_EQ(items.size(), 3);  // base 2, 3 + fresh 4
  std::map<NodeId, float> by_id;
  for (int64_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(g.node_type(items.ids[i]), NodeType::kItem);
    by_id[items.ids[i]] = items.weights[i];
  }
  EXPECT_FLOAT_EQ(by_id[2], 4.0f);  // 1 base + 3 delta, coalesced
  EXPECT_FLOAT_EQ(by_id[3], 1.0f);
  EXPECT_FLOAT_EQ(by_id[4], 2.0f);

  graph::NeighborScratch user_scratch;
  auto users = view.NeighborsOfType(1, NodeType::kUser, &user_scratch);
  ASSERT_EQ(users.size(), 1);
  EXPECT_EQ(users.ids[0], 0);
  EXPECT_FLOAT_EQ(users.weights[0], 6.0f);  // 1 base + 5 delta

  // The typed union must equal the full merge filtered by type.
  graph::NeighborScratch full_scratch;
  auto full = view.Neighbors(1, &full_scratch);
  EXPECT_EQ(full.size(), items.size() + users.size());

  // Untouched node: the static view's zero-copy sub-span semantics.
  graph::NeighborScratch s2;
  auto untouched = view.NeighborsOfType(3, NodeType::kQuery, &s2);
  graph::CsrGraphView csr(g);
  graph::NeighborScratch s3;
  auto expect = csr.NeighborsOfType(3, NodeType::kQuery, &s3);
  ASSERT_EQ(untouched.size(), expect.size());
  for (int64_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(untouched.ids[i], expect.ids[i]);
  }
  EXPECT_EQ(expect.ids.data(), g.NeighborsOfType(3, NodeType::kQuery).data());
}

// --- GNN baselines through GraphView ----------------------------------------

TEST(BaselineGraphViewTest, GnnBaselineScoresFreshEdgesThroughDynamicView) {
  // Distinct per-item slots so neighbor identity changes the aggregation.
  HeteroGraphBuilder b(kDim);
  b.AddNode(NodeType::kUser, std::vector<float>(kDim, 0.1f), {0});
  b.AddNode(NodeType::kQuery, std::vector<float>(kDim, 0.2f), {1});
  for (int i = 0; i < 6; ++i) {
    b.AddNode(NodeType::kItem, std::vector<float>(kDim, 0.3f), {2 + i});
  }
  ASSERT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, RelationKind::kClick, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 3, RelationKind::kClick, 1.0f).ok());
  HeteroGraph g = b.Build();

  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 7, RelationKind::kClick, 4.0f, 0}}))
          .ok());
  DynamicGraphView view(&dyn);

  auto cfg = baselines::GnnBaselineConfig::GraphSage(/*hidden_dim=*/8,
                                                     /*k=*/8, /*seed=*/3);
  cfg.sampler.num_hops = 1;
  baselines::GnnBaselineModel model(&g, cfg);

  // k >= degree makes uniform sampling exhaustive, so the embedding is a
  // deterministic function of the visible neighborhood.
  Rng r1(11);
  auto uq_static = model.UserQueryEmbeddingInference(0, 1, &r1);
  model.AttachGraphView(&view);
  EXPECT_EQ(&model.view(), &view);
  Rng r2(11);
  auto uq_fresh = model.UserQueryEmbeddingInference(0, 1, &r2);
  // The freshly ingested (1, 7) click enters the query ROI, so the scores
  // must move — the static baselines were blind to streamed edges before.
  bool moved = false;
  for (size_t i = 0; i < uq_static.size(); ++i) {
    moved |= std::abs(uq_static[i] - uq_fresh[i]) > 1e-6f;
  }
  EXPECT_TRUE(moved);

  // Detaching restores the construction-graph view bit-for-bit.
  model.AttachGraphView(nullptr);
  Rng r3(11);
  auto uq_back = model.UserQueryEmbeddingInference(0, 1, &r3);
  ASSERT_EQ(uq_back.size(), uq_static.size());
  for (size_t i = 0; i < uq_back.size(); ++i) {
    EXPECT_FLOAT_EQ(uq_back[i], uq_static[i]);
  }
}

// --- Serving-layer coordination ---------------------------------------------

/// Reports `touched` from every pass: the shape of any policy whose pass
/// changes node neighborhoods behind the ingest pipeline's update hooks.
class TouchingPolicy final : public MaintenancePolicy {
 public:
  explicit TouchingPolicy(std::vector<NodeId> touched)
      : touched_(std::move(touched)) {}

  const char* name() const override { return "touching"; }
  StatusOr<MaintenanceReport> RunOnce() override {
    MaintenanceReport report;
    report.acted = true;
    report.touched = touched_;
    return report;
  }

 private:
  std::vector<NodeId> touched_;
};

TEST(ServingMaintenanceTest, TouchedNodesInvalidateNeighborCacheViaScheduler) {
  // An ingested click surfaces in the serving NeighborCache. An edge applied
  // behind the pipeline's update hooks leaves the cached entry stale until a
  // maintenance pass reports the node touched; that report must flow
  // through OnlineServer::AttachMaintenance into an invalidation + re-fill.
  const int dim = 8;
  const int num_items = 6;
  HeteroGraph g = MakeTinyGraph(num_items);
  std::vector<float> node_emb(g.num_nodes() * dim, 0.0f);
  std::vector<NodeId> item_ids;
  std::vector<float> item_emb(num_items * dim, 0.0f);
  for (int i = 0; i < num_items; ++i) {
    item_ids.push_back(2 + i);
    item_emb[static_cast<int64_t>(i) * dim + i] = 1.0f;
  }
  serving::OnlineServerOptions sopt;
  sopt.embedding_dim = dim;
  sopt.top_n = 3;
  serving::OnlineServer server(&g, sopt, node_emb, item_ids, item_emb);

  GraphDeltaLog log(2);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  server.AttachDynamicGraph(&dyn);
  MaintenanceScheduler scheduler;
  scheduler.AddPolicy(std::make_unique<TouchingPolicy>(std::vector<NodeId>{1}),
                      {});
  server.AttachMaintenance(&scheduler);

  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.AddUpdateListener([&](uint64_t epoch, const std::vector<NodeId>& nodes) {
    server.OnGraphUpdate(epoch, nodes);
  });
  pipeline.Start();

  const NodeId fresh_item = 2 + 3;
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh_item};
  session.timestamp = 1000;
  server.WarmCache({0, 1});
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();

  // Warm-path read: poll until the cached entry of query 1 holds `item`
  // (the hooks invalidated it, so an asynchronous re-fill must land).
  auto query_gets = [&](NodeId item) {
    for (int i = 0; i < 2000; ++i) {
      std::vector<NodeId> out;
      if (server.cache().Get(1, &out) &&
          std::find(out.begin(), out.end(), item) != out.end()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  EXPECT_TRUE(query_gets(fresh_item));

  // Apply a click straight to the graph: no update hook fires, so the
  // cached entry keeps serving the old neighbors.
  const NodeId hidden_item = 2 + 5;
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, hidden_item, RelationKind::kClick, 1.0f,
                                 1000}},
                               &dyn))
          .ok());
  std::vector<NodeId> stale;
  ASSERT_TRUE(server.cache().Get(1, &stale));
  EXPECT_EQ(std::find(stale.begin(), stale.end(), hidden_item), stale.end());

  // The pass's touched-node report reaches the server's NeighborCache, and
  // the re-fill sees the new edge.
  auto r = scheduler.RunOnceForTest("touching");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().acted);
  EXPECT_TRUE(query_gets(hidden_item));
  pipeline.Stop();
}

// --- Incremental compaction policy (per-segment, adaptive hotness) ----------

/// 16-node graph (user 0, query 1, items 2..15) partitioned into four
/// 4-row segments.
std::unique_ptr<DynamicHeteroGraph> MakeSegmented(const HeteroGraph* g) {
  streaming::DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  return std::make_unique<DynamicHeteroGraph>(g, opt);
}

/// Segments some fold has rebuilt (folded_epoch stamped), ascending.
std::vector<int64_t> FoldedSegments(const DynamicHeteroGraph& dyn) {
  std::vector<int64_t> out;
  for (const auto& p : dyn.SegmentPressures()) {
    if (p.folded_epoch > 0) out.push_back(p.segment);
  }
  return out;
}

TEST(IncrementalCompactionPolicyTest, FoldsOnlySegmentsOverBudget) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 1 << 20;  // global safety net far away
  opt.segment_entry_budget = 6;
  opt.read_hot_boost = 1.0;  // pure entry budget (adaptation off)
  CompactionPolicy policy(&dyn, &log, /*clock=*/nullptr, opt);

  // Segment 2 (rows 8..11) runs hot: 4 same-segment edges = 8 half-edges
  // there. Segment 0 stays just warm: 1 edge = 2 half-edges.
  for (NodeId it = 8; it < 12; ++it) {
    ASSERT_TRUE(
        dyn.ApplyBatch(MakeBatch(
                           &log, 0,
                           {{it, it == 11 ? NodeId{8} : it + 1,
                             RelationKind::kSession, 1.0f, 0}}))
            .ok());
  }
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());

  auto base_before = dyn.base();
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(policy.incremental_compactions(), 1);
  EXPECT_EQ(FoldedSegments(dyn), std::vector<int64_t>{2});  // rows 8..11

  // Only segment 2 was rebuilt; segment 0's overlay survived untouched and
  // the other segments are shared pointers.
  auto base_after = dyn.base();
  EXPECT_NE(base_after->segment_ptr(2), base_before->segment_ptr(2));
  EXPECT_EQ(base_after->segment_ptr(0), base_before->segment_ptr(0));
  EXPECT_EQ(base_after->segment_ptr(1), base_before->segment_ptr(1));
  EXPECT_EQ(base_after->segment_ptr(3), base_before->segment_ptr(3));
  EXPECT_EQ(dyn.num_delta_entries(), 2);  // the warm segment-0 edge
  EXPECT_EQ(base_after->degree(8), 2);    // session ring folded in
  // The log keeps everything the warm overlay still pends on.
  EXPECT_GT(log.Stats().total_batches, 0);
  auto pressures = dyn.SegmentPressures();
  EXPECT_EQ(pressures[2].delta_entries, 0);
  EXPECT_EQ(pressures[0].delta_entries, 2);
  EXPECT_GT(pressures[2].folded_epoch, 0u);
}

TEST(IncrementalCompactionPolicyTest, ReadHotSegmentsFoldSooner) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 1 << 20;
  // Neither segment reaches the static budget (each holds 4 half-edges);
  // with two dirty segments the fleet-average normalization lets a
  // read-hot one fold at just over half the budget.
  opt.segment_entry_budget = 7;
  opt.read_hot_boost = 4.0;
  CompactionPolicy policy(&dyn, &log, nullptr, opt);

  // Equal delta mass (4 half-edges each) in segments 2 and 3.
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{8, 9, RelationKind::kSession, 1.f, 0},
                                        {10, 11, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{12, 13, RelationKind::kSession, 1.f,
                                         0},
                                        {14, 15, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  // First pass baselines the read counters (nothing folds yet).
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);

  // Hammer overlay reads on segment 2 only.
  auto snap = dyn.MakeSnapshot();
  Rng rng(3);
  for (int i = 0; i < 512; ++i) {
    snap.SampleNeighbor(8 + (i % 4), &rng);
  }
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().acted) << "read-hot segment should fold below budget";
  EXPECT_EQ(FoldedSegments(dyn), std::vector<int64_t>{2});  // not 3
  auto pressures = dyn.SegmentPressures();
  EXPECT_EQ(pressures[2].delta_entries, 0);
  EXPECT_EQ(pressures[3].delta_entries, 4);
}

TEST(HotNodeCacheTest, ReadHammeredSegmentsAdmitAtLowerDeltaThreshold) {
  // Admission is read-rate aware, not delta-count alone: nodes 8 (segment
  // 2) and 12 (segment 3) carry identical delta mass below the fleet
  // default floor, but only the segment whose overlay readers hammer it
  // earns materialization at the reduced floor.
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 4;   // fleet default
  copt.read_admit_boost = 4.0;  // read-hot floor can drop to 1
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);

  // Two delta half-edges on node 8 and two on node 12 — both below 4.
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{8, 9, RelationKind::kSession, 1.f, 0},
                                        {8, 10, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{12, 13, RelationKind::kSession, 1.f,
                                         0},
                                        {12, 14, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  // First pass baselines the read counters; no floor is boosted and no
  // node crosses the default threshold.
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);
  EXPECT_EQ(cache.size(), 0u);

  // Hammer overlay reads on segment 2 only.
  {
    auto snap = dyn.MakeSnapshot();
    Rng rng(3);
    for (int i = 0; i < 512; ++i) {
      snap.SampleNeighbor(8 + (i % 3), &rng);
    }
  }
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted) << "read-hot segment should admit below floor";
  EXPECT_GE(obs::MetricsRegistry::Global()
                ->GetGauge("maintenance.hot_cache.read_boosted_segments")
                ->Value(),
            1.0);
  auto snap = dyn.MakeSnapshot();
  EXPECT_TRUE(cache.IsFresh(8, dyn.node_epoch(8), snap.segment_generation(8)));
  EXPECT_FALSE(cache.IsFresh(12, dyn.node_epoch(12),
                             snap.segment_generation(12)));
}

TEST(IncrementalCompactionPolicyTest, GlobalThresholdStillForcesFullFold) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 4;      // the legacy safety net
  opt.segment_entry_budget = 100;  // incremental alone would never trigger
  CompactionPolicy policy(&dyn, &log, nullptr, opt);

  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 2, RelationKind::kClick, 1.f, 0},
                                        {8, 9, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(policy.compactions(), 1);
  EXPECT_EQ(policy.incremental_compactions(), 0);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(log.Stats().total_events, 0);  // SafeTruncateEpoch == watermark
}

}  // namespace
}  // namespace maintenance
}  // namespace zoomer
