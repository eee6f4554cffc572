// Tests for the Zoomer core: relevance scorers, focal-biased ROI sampling,
// multi-level attention invariants, and end-to-end learning behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/relevance.h"
#include "core/roi_sampler.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/taobao_generator.h"

namespace zoomer {
namespace core {
namespace {

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;

// --- Relevance scorers --------------------------------------------------------

TEST(RelevanceTest, TanimotoMatchesEq5) {
  // e = Fc.Fj / (|Fc|^2 + |Fj|^2 - Fc.Fj)
  const float fc[] = {1.0f, 0.0f};
  const float fj[] = {0.5f, 0.5f};
  TanimotoScorer scorer;
  const double dot = 0.5, na = 1.0, nb = 0.5;
  EXPECT_NEAR(scorer.Score(fc, fj, 2), dot / (na + nb - dot), 1e-9);
}

TEST(RelevanceTest, TanimotoIdenticalVectorsIsOne) {
  const float v[] = {0.3f, -0.7f, 0.2f};
  TanimotoScorer scorer;
  EXPECT_NEAR(scorer.Score(v, v, 3), 1.0, 1e-6);
}

TEST(RelevanceTest, CosineRange) {
  const float a[] = {1.0f, 0.0f};
  const float b[] = {-1.0f, 0.0f};
  const float c[] = {0.0f, 1.0f};
  CosineScorer scorer;
  EXPECT_NEAR(scorer.Score(a, a, 2), 1.0, 1e-6);
  EXPECT_NEAR(scorer.Score(a, b, 2), -1.0, 1e-6);
  EXPECT_NEAR(scorer.Score(a, c, 2), 0.0, 1e-6);
}

TEST(RelevanceTest, ZeroVectorSafe) {
  const float z[] = {0.0f, 0.0f};
  const float a[] = {1.0f, 1.0f};
  EXPECT_EQ(TanimotoScorer().Score(z, z, 2), 0.0);
  EXPECT_EQ(CosineScorer().Score(z, a, 2), 0.0);
}

TEST(RelevanceTest, FactoryProducesAllKinds) {
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kTanimoto)->name(), "tanimoto");
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kCosine)->name(), "cosine");
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kDot)->name(), "dot");
}

// --- ROI sampler ----------------------------------------------------------------

// Star graph: ego user 0 with item neighbors of two content clusters.
HeteroGraph MakeStarGraph(int n_relevant, int n_irrelevant) {
  HeteroGraphBuilder b(2);
  b.AddNode(NodeType::kUser, {1.0f, 0.0f}, {0});
  b.AddNode(NodeType::kQuery, {1.0f, 0.0f}, {0, 0});
  for (int i = 0; i < n_relevant; ++i) {
    // aligned with focal direction (1,0)
    NodeId id = b.AddNode(NodeType::kItem, {0.9f, 0.1f}, {i, 0, 0, 0, 0});
    EXPECT_TRUE(b.AddEdge(0, id, RelationKind::kClick).ok());
  }
  for (int i = 0; i < n_irrelevant; ++i) {
    // orthogonal to focal
    NodeId id = b.AddNode(NodeType::kItem, {0.0f, 1.0f},
                          {n_relevant + i, 0, 0, 0, 0});
    EXPECT_TRUE(b.AddEdge(0, id, RelationKind::kClick).ok());
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick).ok());
  return b.Build();
}

TEST(RoiSamplerTest, FocalTopKSelectsRelevantNeighbors) {
  HeteroGraph g = MakeStarGraph(6, 6);
  RoiSamplerOptions opt;
  opt.k = 6;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(1);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  ASSERT_EQ(roi.size(), 7);  // ego + 6
  // All selected children must be from the relevant cluster or the query
  // (content aligned with (1,0)).
  for (int i = 1; i < roi.size(); ++i) {
    const float* c = g.content(roi.nodes[i].id);
    EXPECT_GT(c[0], 0.5f) << "sampled an irrelevant neighbor";
  }
}

TEST(RoiSamplerTest, GraphViewPathMatchesCsrOverload) {
  // The HeteroGraph overloads wrap CsrGraphView; sampling through an
  // explicit view must be bit-identical for the deterministic focal-top-k
  // kind (same scores, same tiebreaks, same rng consumption).
  HeteroGraph g = MakeStarGraph(6, 6);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  graph::CsrGraphView view(g);
  auto fc_csr = sampler.FocalVector(g, {0, 1});
  auto fc_view = sampler.FocalVector(view, {0, 1});
  EXPECT_EQ(fc_csr, fc_view);
  Rng r1(3), r2(3);
  RoiSubgraph a = sampler.Sample(g, 0, fc_csr, &r1);
  RoiSubgraph b = sampler.Sample(view, 0, fc_view, &r2);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].depth, b.nodes[i].depth);
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
  }
}

TEST(RoiSamplerTest, SampleBatchMatchesPerEgoSample) {
  // The frontier-at-once batch (all egos hop h before hop h+1, shared
  // scratch + relevance memo) must produce exactly the per-ego trees for
  // the deterministic focal-top-k kind, including repeated egos.
  HeteroGraph g = MakeStarGraph(6, 6);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  auto fc = sampler.FocalVector(g, {0, 1});
  const std::vector<graph::NodeId> egos = {0, 1, 0, 3};
  Rng batched(5);
  std::vector<RoiSubgraph> rois =
      sampler.SampleBatch(g, {egos.data(), egos.size()}, fc, &batched);
  ASSERT_EQ(rois.size(), egos.size());
  for (size_t e = 0; e < egos.size(); ++e) {
    Rng single(5);
    RoiSubgraph want = sampler.Sample(g, egos[e], fc, &single);
    ASSERT_EQ(rois[e].size(), want.size()) << "ego " << egos[e];
    for (int i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rois[e].nodes[i].id, want.nodes[i].id);
      EXPECT_EQ(rois[e].nodes[i].depth, want.nodes[i].depth);
      EXPECT_EQ(rois[e].nodes[i].parent, want.nodes[i].parent);
    }
  }
}

TEST(RoiSamplerTest, RelevanceScoresDecreaseInSelectionOrder) {
  HeteroGraph g = MakeStarGraph(8, 8);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(2);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  for (int i = 2; i < roi.size(); ++i) {
    EXPECT_GE(roi.nodes[i - 1].relevance, roi.nodes[i].relevance);
  }
}

TEST(RoiSamplerTest, TreeStructureAndDepths) {
  data::TaobaoGeneratorOptions dopt;
  dopt.num_users = 50;
  dopt.num_queries = 30;
  dopt.num_items = 100;
  dopt.num_sessions = 400;
  dopt.num_categories = 4;
  dopt.content_dim = 8;
  auto ds = GenerateTaobaoDataset(dopt);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  Rng rng(3);
  auto fc = sampler.FocalVector(ds.graph, {0, 60});
  RoiSubgraph roi = sampler.Sample(ds.graph, 0, fc, &rng);
  ASSERT_GT(roi.size(), 1);
  EXPECT_EQ(roi.nodes[0].depth, 0);
  EXPECT_EQ(roi.nodes[0].parent, -1);
  for (int i = 1; i < roi.size(); ++i) {
    const auto& n = roi.nodes[i];
    EXPECT_GE(n.parent, 0);
    EXPECT_LT(n.parent, i);  // parents precede children (BFS order)
    EXPECT_EQ(n.depth, roi.nodes[n.parent].depth + 1);
    EXPECT_LE(n.depth, 2);
  }
  // children ranges consistent
  for (int p = 0; p < roi.size(); ++p) {
    for (int c = roi.children_begin[p]; c < roi.children_end[p]; ++c) {
      EXPECT_EQ(roi.nodes[c].parent, p);
    }
  }
}

TEST(RoiSamplerTest, RespectsKAndMaxNodes) {
  HeteroGraph g = MakeStarGraph(20, 20);
  RoiSamplerOptions opt;
  opt.k = 3;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(4);
  auto fc = sampler.FocalVector(g, {0, 1});
  EXPECT_EQ(sampler.Sample(g, 0, fc, &rng).size(), 4);

  opt.k = 100;
  opt.max_nodes = 10;
  RoiSampler capped(opt);
  EXPECT_LE(capped.Sample(g, 0, fc, &rng).size(), 10);
}

TEST(RoiSamplerTest, ExcludeParentPreventsBacktracking) {
  // Path graph: u0 -- q1 -- i2; sampling from q1 at hop 2 must not return u0.
  HeteroGraphBuilder b(2);
  b.AddNode(NodeType::kUser, {1.0f, 0.0f}, {0});
  b.AddNode(NodeType::kQuery, {1.0f, 0.0f}, {0, 0});
  b.AddNode(NodeType::kItem, {1.0f, 0.0f}, {0, 0, 0, 0, 0});
  ASSERT_TRUE(b.AddEdge(0, 1, RelationKind::kClick).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, RelationKind::kClick).ok());
  HeteroGraph g = b.Build();
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  Rng rng(5);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  // hop1 = {q1}; hop2 children of q1 must be {i2}, not back to u0.
  for (int i = 1; i < roi.size(); ++i) {
    if (roi.nodes[i].depth == 2) {
      EXPECT_NE(roi.nodes[i].id, 0);
    }
  }
}

TEST(RoiSamplerTest, FocalSamplingIsDeterministic) {
  HeteroGraph g = MakeStarGraph(10, 10);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng r1(6), r2(7);  // different rngs: top-k selection must not depend on rng
  auto fc = sampler.FocalVector(g, {0, 1});
  auto roi1 = sampler.Sample(g, 0, fc, &r1);
  auto roi2 = sampler.Sample(g, 0, fc, &r2);
  ASSERT_EQ(roi1.size(), roi2.size());
  for (int i = 0; i < roi1.size(); ++i) {
    EXPECT_EQ(roi1.nodes[i].id, roi2.nodes[i].id);
  }
}

TEST(RoiSamplerTest, UniformSamplerDistinctChildren) {
  HeteroGraph g = MakeStarGraph(15, 15);
  RoiSamplerOptions opt;
  opt.k = 10;
  opt.num_hops = 1;
  opt.kind = SamplerKind::kUniform;
  RoiSampler sampler(opt);
  Rng rng(8);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  std::set<NodeId> ids;
  for (int i = 1; i < roi.size(); ++i) ids.insert(roi.nodes[i].id);
  EXPECT_EQ(static_cast<int>(ids.size()), roi.size() - 1);
}

TEST(RoiSamplerTest, WeightedEdgeSamplerRuns) {
  HeteroGraph g = MakeStarGraph(10, 10);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  opt.kind = SamplerKind::kWeightedEdge;
  RoiSampler sampler(opt);
  Rng rng(9);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  EXPECT_GT(roi.size(), 1);
  EXPECT_LE(roi.size(), 6);
}

TEST(RoiSamplerTest, FocalVectorSumsContents) {
  HeteroGraph g = MakeStarGraph(2, 2);
  RoiSampler sampler({});
  auto fc = sampler.FocalVector(g, {0, 1});
  EXPECT_FLOAT_EQ(fc[0], 2.0f);  // (1,0) + (1,0)
  EXPECT_FLOAT_EQ(fc[1], 0.0f);
}

// --- Model -----------------------------------------------------------------------

data::RetrievalDataset TinyDataset() {
  data::TaobaoGeneratorOptions opt;
  opt.num_users = 60;
  opt.num_queries = 40;
  opt.num_items = 120;
  opt.num_sessions = 500;
  opt.num_categories = 6;
  opt.content_dim = 12;
  opt.seed = 11;
  return GenerateTaobaoDataset(opt);
}

ZoomerConfig TinyConfig() {
  ZoomerConfig cfg;
  cfg.hidden_dim = 8;
  cfg.sampler.k = 4;
  cfg.sampler.num_hops = 2;
  cfg.seed = 2;
  return cfg;
}

TEST(ZoomerModelTest, VariantNames) {
  EXPECT_EQ(ZoomerConfig::Full().VariantName(), "Zoomer");
  EXPECT_EQ(ZoomerConfig::Gcn().VariantName(), "GCN");
  ZoomerConfig fe;
  fe.use_semantic_attention = false;
  EXPECT_EQ(fe.VariantName(), "Zoomer-FE");
  ZoomerConfig fs;
  fs.use_edge_attention = false;
  EXPECT_EQ(fs.VariantName(), "Zoomer-FS");
  ZoomerConfig es;
  es.use_feature_projection = false;
  EXPECT_EQ(es.VariantName(), "Zoomer-ES");
}

TEST(ZoomerModelTest, EmbeddingShapes) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(3);
  auto ex = ds.train.front();
  auto uq = model.UserQueryEmbedding(ex.user, ex.query, &rng);
  EXPECT_EQ(uq.rows(), 1);
  EXPECT_EQ(uq.cols(), 8);
  auto it = model.ItemEmbedding(ex.item);
  EXPECT_EQ(it.rows(), 1);
  EXPECT_EQ(it.cols(), 8);
  auto logit = model.ScoreLogit(ex, &rng);
  EXPECT_EQ(logit.size(), 1);
  EXPECT_FALSE(std::isnan(logit.item()));
}

TEST(ZoomerModelTest, LogitBoundedByScale) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const float logit = model.ScoreLogit(ds.train[i], &rng).item();
    EXPECT_LE(std::abs(logit), model.logit_scale() + 1e-4f);
  }
}

TEST(ZoomerModelTest, AllVariantsForwardCleanly) {
  auto ds = TinyDataset();
  for (auto cfg_fn : {&ZoomerConfig::Full, &ZoomerConfig::Gcn}) {
    ZoomerConfig cfg = cfg_fn();
    cfg.hidden_dim = 8;
    cfg.sampler.k = 3;
    ZoomerModel model(&ds.graph, cfg);
    Rng rng(5);
    EXPECT_FALSE(std::isnan(model.ScoreLogit(ds.train[0], &rng).item()));
  }
  for (int disable = 0; disable < 3; ++disable) {
    ZoomerConfig cfg = TinyConfig();
    if (disable == 0) cfg.use_feature_projection = false;
    if (disable == 1) cfg.use_edge_attention = false;
    if (disable == 2) cfg.use_semantic_attention = false;
    ZoomerModel model(&ds.graph, cfg);
    Rng rng(6);
    EXPECT_FALSE(std::isnan(model.ScoreLogit(ds.train[1], &rng).item()));
  }
}

TEST(ZoomerModelTest, ExplainEdgeWeightsNormalizedPerType) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(7);
  const auto& ex = ds.train.front();
  auto records = model.ExplainEdgeWeights(ex.query, ex.user, ex.query, &rng);
  ASSERT_FALSE(records.empty());
  // Weights of each type group sum to 1.
  double sums[graph::kNumNodeTypes] = {0, 0, 0};
  int counts[graph::kNumNodeTypes] = {0, 0, 0};
  for (const auto& r : records) {
    sums[static_cast<int>(r.type)] += r.weight;
    counts[static_cast<int>(r.type)] += 1;
    EXPECT_GE(r.weight, 0.0f);
    EXPECT_LE(r.weight, 1.0f);
  }
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    if (counts[t] > 0) {
      EXPECT_NEAR(sums[t], 1.0, 1e-4);
    }
  }
}

TEST(ZoomerModelTest, DifferentFocalsGiveDifferentEmbeddings) {
  // The core ROI claim: one ego node, multiple focal-dependent embeddings.
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(8);
  // Find a query that appears with two different users.
  graph::NodeId q = ds.train.front().query;
  graph::NodeId u1 = ds.train.front().user, u2 = -1;
  for (const auto& ex : ds.train) {
    if (ex.query == q && ex.user != u1) {
      u2 = ex.user;
      break;
    }
  }
  ASSERT_NE(u2, -1);
  auto e1 = model.EgoEmbedding(q, u1, q, &rng);
  auto e2 = model.EgoEmbedding(q, u2, q, &rng);
  float diff = 0.0f;
  for (int64_t i = 0; i < e1.cols(); ++i) {
    diff += std::abs(e1.at(0, i) - e2.at(0, i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(ZoomerTrainerTest, TrainingImprovesAucAboveChance) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 5;
  topt.batch_size = 64;
  topt.learning_rate = 0.01f;
  topt.max_examples_per_epoch = 1500;
  ZoomerTrainer trainer(&model, topt);
  auto result = trainer.Train(ds);
  EXPECT_EQ(result.epochs.size(), 5u);
  EXPECT_GT(result.examples_seen, 0);
  auto eval = trainer.Evaluate(ds, 800);
  EXPECT_GT(eval.auc, 0.60) << "Zoomer failed to learn planted structure";
  EXPECT_GE(eval.mae, 0.0);
  EXPECT_GE(eval.rmse, eval.mae);
}

TEST(ZoomerTrainerTest, LossDecreasesOverEpochs) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 3;
  topt.batch_size = 64;
  topt.max_examples_per_epoch = 800;
  ZoomerTrainer trainer(&model, topt);
  auto result = trainer.Train(ds);
  EXPECT_LT(result.epochs.back().mean_loss, result.epochs.front().mean_loss);
}

TEST(ZoomerTrainerTest, HitRateMonotoneInK) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 1;
  topt.max_examples_per_epoch = 600;
  ZoomerTrainer trainer(&model, topt);
  trainer.Train(ds);
  EvalResult eval;
  trainer.EvaluateHitRate(ds, &eval, /*max_positives=*/60);
  EXPECT_LE(eval.hitrate_at[0], eval.hitrate_at[1]);
  EXPECT_LE(eval.hitrate_at[1], eval.hitrate_at[2]);
  EXPECT_GT(eval.hitrate_at[2], 0.0);  // pool of 120 items, K=300 covers all
}

TEST(ZoomerTrainerTest, TrainUntilAucStops) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.max_examples_per_epoch = 600;
  ZoomerTrainer trainer(&model, topt);
  const TimeToAucResult run = trainer.TrainUntilAuc(ds, /*target_auc=*/0.55,
                                                    /*max_epochs=*/4);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GE(run.epochs, 1);
  EXPECT_LE(run.epochs, 4);
  EXPECT_GT(run.best_auc, 0.0);
  // Stopping early means the target was reached; running all four epochs
  // without reaching it must say so.
  if (run.epochs < 4) {
    EXPECT_TRUE(run.reached);
  }
  EXPECT_EQ(run.reached, run.best_auc >= 0.55);

  // A target no model reaches runs to the cap and reports the miss.
  ZoomerModel capped_model(&ds.graph, TinyConfig());
  ZoomerTrainer capped(&capped_model, topt);
  const TimeToAucResult miss = capped.TrainUntilAuc(ds, /*target_auc=*/1.01,
                                                    /*max_epochs=*/2);
  EXPECT_FALSE(miss.reached);
  EXPECT_EQ(miss.epochs, 2);
  EXPECT_LT(miss.best_auc, 1.01);
}

}  // namespace
}  // namespace core
}  // namespace zoomer
