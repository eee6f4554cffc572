// Tests for src/obs: lock-free counter/gauge/histogram instruments (hammered
// from many threads — run under TSan in CI), log-bucket quantile accuracy
// against exact order statistics, registry ownership/aggregation semantics,
// exporter round-trips, the trace ring, and the streaming freshness-lag
// gauge regression (returns to ~0 after a quiescent flush).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace obs {
namespace {

TEST(CounterTest, SingleThreadedAdds) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Add(-2);  // rollback path (queue-closed offer)
  EXPECT_EQ(c.Value(), 40);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<int64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, LastWriterWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.Value(), 3.5);
  g.Set(0.0);
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundsInvariants) {
  // Every probed value must land in a bucket whose [lower, next-lower)
  // range contains it, and the reported midpoint must too.
  std::vector<int64_t> probes = {0, 1, 2, 15, 16, 17, 31, 32, 100, 1000,
                                 4095, 4096, 123456789, int64_t{1} << 40};
  for (int64_t v : probes) {
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0) << v;
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    EXPECT_GE(v, Histogram::BucketLowerBound(idx)) << v;
    if (idx + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::BucketLowerBound(idx + 1)) << v;
      EXPECT_LT(Histogram::BucketMidpoint(idx),
                Histogram::BucketLowerBound(idx + 1))
          << v;
    }
    EXPECT_GE(Histogram::BucketMidpoint(idx),
              Histogram::BucketLowerBound(idx))
        << v;
  }
  // Negatives clamp into the zero bucket.
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  // Values below 16 are exact unit buckets.
  for (int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(HistogramTest, QuantileAccuracyVsExact) {
  // Record 1..100000 once each; the exact p-th percentile is p * 1000. The
  // log-scale buckets bound relative error by 1/16; midpoint reporting
  // halves it, so assert the hard 6.5% envelope.
  Histogram h;
  constexpr int64_t kN = 100000;
  for (int64_t v = 1; v <= kN; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count(), kN);
  EXPECT_EQ(snap.sum(), kN * (kN + 1) / 2);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = p / 100.0 * kN;
    const double est = static_cast<double>(snap.Percentile(p));
    EXPECT_NEAR(est, exact, exact * 0.065) << "p" << p;
  }
  EXPECT_NEAR(static_cast<double>(snap.Max()), kN, kN * 0.065);
  EXPECT_NEAR(snap.Mean(), (kN + 1) / 2.0, 1.0);
}

TEST(HistogramTest, ConcurrentRecordsMergeExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t * 1000 + i % 997);
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_GT(snap.sum(), 0);
}

TEST(HistogramTest, SnapshotMergeAddsCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 300; ++i) b.Record(1000);
  HistogramSnapshot snap = a.Snapshot();
  b.MergeInto(&snap);
  EXPECT_EQ(snap.count(), 400);
  // p25 falls in a's bucket, p99 in b's.
  EXPECT_NEAR(static_cast<double>(snap.Percentile(20)), 10.0, 1.0);
  EXPECT_NEAR(static_cast<double>(snap.Percentile(99)), 1000.0, 65.0);
}

TEST(RegistryTest, OwnedInstrumentsAreStableAndShared) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("test.counter");
  Counter* c2 = reg.GetCounter("test.counter");
  EXPECT_EQ(c1, c2);
  c1->Add(7);
  reg.GetGauge("test.gauge")->Set(2.5);
  reg.GetHistogram("test.hist")->Record(42);
  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_NE(snap.Find("test.counter"), nullptr);
  EXPECT_EQ(snap.Find("test.counter")->value, 7.0);
  EXPECT_EQ(snap.Find("test.gauge")->value, 2.5);
  EXPECT_EQ(snap.Find("test.hist")->hist.count(), 1);
  EXPECT_EQ(snap.Find("absent"), nullptr);
}

TEST(RegistryTest, ViewsAggregateAndUnregister) {
  MetricsRegistry reg;
  Counter a, b;
  a.Add(10);
  b.Add(32);
  reg.RegisterCounter("agg.counter", &a);
  reg.RegisterCounter("agg.counter", &b);
  Gauge ga, gb;
  ga.Set(1.0);
  gb.Set(9.0);
  reg.RegisterGauge("agg.gauge", &ga);
  reg.RegisterGauge("agg.gauge", &gb);
  Histogram ha, hb;
  ha.Record(5);
  hb.Record(5);
  reg.RegisterHistogram("agg.hist", &ha);
  reg.RegisterHistogram("agg.hist", &hb);

  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("agg.counter")->value, 42.0);  // counters sum
  EXPECT_EQ(snap.Find("agg.gauge")->value, 9.0);     // gauges take max
  EXPECT_EQ(snap.Find("agg.hist")->hist.count(), 2);

  reg.Unregister("agg.counter", &b);
  reg.Unregister("agg.gauge", &gb);
  snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("agg.counter")->value, 10.0);
  EXPECT_EQ(snap.Find("agg.gauge")->value, 1.0);
}

TEST(RegistryTest, SumGaugesAddAcrossViews) {
  // Capacity-style gauges (per-replica queue depths) register with
  // GaugeAgg::kSum: their instances partition a total, so the snapshot adds
  // them instead of taking the worst one.
  MetricsRegistry reg;
  Gauge qa, qb, qc;
  qa.Set(2.0);
  qb.Set(5.0);
  qc.Set(1.0);
  reg.RegisterGauge("queue.depth", &qa, GaugeAgg::kSum);
  reg.RegisterGauge("queue.depth", &qb, GaugeAgg::kSum);
  reg.RegisterGauge("queue.depth", &qc, GaugeAgg::kSum);
  EXPECT_EQ(reg.Snapshot().Find("queue.depth")->value, 8.0);

  reg.Unregister("queue.depth", &qb);
  EXPECT_EQ(reg.Snapshot().Find("queue.depth")->value, 3.0);

  // Dropping the last view clears the name AND its aggregation mode: a
  // future max-style registration under the same name must not sum.
  reg.Unregister("queue.depth", &qa);
  reg.Unregister("queue.depth", &qc);
  EXPECT_EQ(reg.Snapshot().Find("queue.depth"), nullptr);
  Gauge ga, gb;
  ga.Set(4.0);
  gb.Set(6.0);
  reg.RegisterGauge("queue.depth", &ga);
  reg.RegisterGauge("queue.depth", &gb);
  EXPECT_EQ(reg.Snapshot().Find("queue.depth")->value, 6.0);  // max again
}

TEST(RegistryTest, OwnedAndViewShareOneName) {
  MetricsRegistry reg;
  reg.GetCounter("mix")->Add(5);
  Counter view;
  view.Add(3);
  reg.RegisterCounter("mix", &view);
  EXPECT_EQ(reg.Snapshot().Find("mix")->value, 8.0);
}

TEST(ExporterTest, JsonLineRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("x.count")->Add(3);
  reg.GetGauge("x.lag")->Set(1.5);
  for (int i = 0; i < 100; ++i) reg.GetHistogram("x.lat")->Record(100);
  MetricsExporter exporter(&reg);
  const std::string line = exporter.JsonLine();
  EXPECT_NE(line.find("\"ts_monotonic_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"x.count\":3"), std::string::npos);
  EXPECT_NE(line.find("\"x.lag\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"x.lat.count\":100"), std::string::npos);
  EXPECT_NE(line.find("\"x.lat.p99\":"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(ExporterTest, FlattenMatchesJsonKeys) {
  MetricsRegistry reg;
  reg.GetCounter("flat.count")->Add(2);
  reg.GetHistogram("flat.lat")->Record(50);
  std::vector<std::string> keys;
  MetricsExporter::Flatten(reg.Snapshot(),
                           [&keys](const std::string& key, double) {
                             keys.push_back(key);
                           });
  EXPECT_NE(std::find(keys.begin(), keys.end(), "flat.count"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "flat.lat.p50"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "flat.lat.count"), keys.end());
}

TEST(TraceTest, RingKeepsMostRecentUpToCapacity) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.name = "tick";
    ev.attr = i;
    ring.Record(ev);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto recent = ring.Recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first: 6, 7, 8, 9.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].attr, static_cast<int64_t>(6 + i));
  }
  EXPECT_EQ(ring.Recent(2).size(), 2u);
  EXPECT_EQ(ring.Recent(2)[1].attr, 9);
}

TEST(TraceTest, SpanRecordsDurationAndHistogram) {
  TraceRing ring(8);
  Histogram lat;
  {
    TraceSpan span("unit_of_work", &ring, &lat);
    span.set_attr(123);
  }
  const auto recent = ring.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_STREQ(recent[0].name, "unit_of_work");
  EXPECT_EQ(recent[0].attr, 123);
  EXPECT_GE(recent[0].duration_us, 0);
  EXPECT_EQ(lat.Snapshot().count(), 1);
}

// -- Streaming freshness-lag regression --------------------------------------

TEST(FreshnessLagTest, GaugeReturnsToZeroAfterQuiescentFlush) {
  // Private registry so assertions see only this pipeline's instruments.
  MetricsRegistry reg;
  graph::HeteroGraphBuilder b(4);
  b.AddNode(graph::NodeType::kUser, std::vector<float>(4, 0.1f), {0});
  b.AddNode(graph::NodeType::kQuery, std::vector<float>(4, 0.2f), {1});
  for (int i = 0; i < 6; ++i) {
    b.AddNode(graph::NodeType::kItem, std::vector<float>(4, 0.3f), {2});
  }
  ASSERT_TRUE(b.AddEdge(0, 1, graph::RelationKind::kClick, 1.0f).ok());
  auto g = b.Build();

  streaming::GraphDeltaLog log(2);
  streaming::DynamicHeteroGraph dyn(&g);
  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  iopt.registry = &reg;
  {
    streaming::IngestPipeline pipeline(&log, &dyn, iopt);
    pipeline.Start();
    for (int s = 0; s < 50; ++s) {
      graph::SessionRecord session;
      session.user = 0;
      session.query = 1;
      session.clicks = {2 + s % 6, 2 + (s + 1) % 6};
      ASSERT_TRUE(pipeline.Offer(session));
    }
    pipeline.Flush();

    const RegistrySnapshot snap = reg.Snapshot();
    const MetricPoint* lag = snap.Find("streaming.freshness_lag_us");
    ASSERT_NE(lag, nullptr);
    // Every shard's final batch drained its queue, so the aggregate (max
    // over shards) must have been reset to 0.
    EXPECT_EQ(lag->value, 0.0);
    for (int shard = 0; shard < iopt.num_shards; ++shard) {
      const MetricPoint* shard_lag = snap.Find(
          "streaming.freshness_lag_us.shard" + std::to_string(shard));
      ASSERT_NE(shard_lag, nullptr) << shard;
      EXPECT_EQ(shard_lag->value, 0.0) << shard;
    }
    const MetricPoint* lat = snap.Find("streaming.ingest_batch_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->hist.count(), 0);
    const MetricPoint* applied = snap.Find("streaming.events_applied");
    ASSERT_NE(applied, nullptr);
    EXPECT_GT(applied->value, 0.0);
    pipeline.Stop();
  }
  // The pipeline unregistered its views: the names aggregate to nothing.
  const RegistrySnapshot after = reg.Snapshot();
  const MetricPoint* applied = after.Find("streaming.events_applied");
  if (applied != nullptr) EXPECT_EQ(applied->value, 0.0);
}

TEST(FreshnessLagTest, DropCountersSurfaceInRegistry) {
  MetricsRegistry reg;
  graph::HeteroGraphBuilder b(4);
  b.AddNode(graph::NodeType::kUser, std::vector<float>(4, 0.1f), {0});
  b.AddNode(graph::NodeType::kQuery, std::vector<float>(4, 0.2f), {1});
  b.AddNode(graph::NodeType::kItem, std::vector<float>(4, 0.3f), {2});
  ASSERT_TRUE(b.AddEdge(0, 1, graph::RelationKind::kClick, 1.0f).ok());
  auto g = b.Build();
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph dyn(&g);
  streaming::IngestOptions iopt;
  iopt.num_shards = 1;
  iopt.registry = &reg;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {999};  // endpoint the graph has never ingested
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();
  const RegistrySnapshot snap = reg.Snapshot();
  const MetricPoint* rejected = snap.Find("streaming.rejected_unknown_node");
  ASSERT_NE(rejected, nullptr);
  EXPECT_GT(rejected->value, 0.0);
  const MetricPoint* dropped = snap.Find("streaming.events_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, rejected->value);
  pipeline.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace zoomer
