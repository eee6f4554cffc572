#include "core/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "core/relevance.h"

namespace zoomer {
namespace core {

using data::Example;
using tensor::Tensor;

ZoomerTrainer::ZoomerTrainer(ScoringModel* model, TrainOptions options)
    : model_(model),
      options_(options),
      optimizer_(model->Parameters(), options.learning_rate, 0.9f, 0.999f,
                 1e-8f, options.weight_decay) {}

void ZoomerTrainer::MaybeRefreshGraphView() {
  if (!graph_refresh_) return;
  const int64_t seen = graph_updates_.load(std::memory_order_acquire);
  if (seen == consumed_graph_updates_) return;
  consumed_graph_updates_ = seen;
  last_graph_epoch_ = graph_refresh_();
  ++graph_refreshes_;
}

double ZoomerTrainer::RunEpoch(const std::vector<Example>& examples,
                               Rng* rng) {
  const bool trainable = !model_->Parameters().empty();
  double loss_sum = 0.0;
  int64_t count = 0;
  int in_batch = 0;
  if (trainable) optimizer_.ZeroGrad();
  MaybeRefreshGraphView();
  for (const auto& ex : examples) {
    Tensor logit = model_->ScoreLogit(ex, rng);
    Tensor label = Tensor::Scalar(ex.label);
    Tensor loss = options_.use_focal_loss
                      ? FocalBceWithLogits(logit, label, options_.focal_gamma)
                      : BceWithLogits(logit, label);
    loss_sum += loss.item();
    ++count;
    if (trainable) {
      // Scale so a full batch averages example losses.
      Tensor scaled =
          Scale(loss, 1.0f / static_cast<float>(options_.batch_size));
      scaled.Backward();
    }
    if (++in_batch >= options_.batch_size) {
      if (trainable) {
        optimizer_.Step();
        optimizer_.ZeroGrad();
      }
      in_batch = 0;
      // Batch boundary: re-pin the dynamic graph view if ingest landed new
      // delta batches, so the next minibatch samples the fresh edges.
      MaybeRefreshGraphView();
    }
  }
  if (trainable && in_batch > 0) optimizer_.Step();
  return count > 0 ? loss_sum / static_cast<double>(count) : 0.0;
}

TrainResult ZoomerTrainer::Train(const data::RetrievalDataset& ds,
                                 bool eval_per_epoch) {
  TrainResult result;
  // Freshness stats are per-run (a long-lived trainer may Train repeatedly
  // against one pipeline); pending update signals intentionally carry over
  // so pre-run ingest is observed at the first batch boundary.
  graph_refreshes_ = 0;
  last_graph_epoch_ = 0;
  Rng rng(options_.seed);
  WallTimer timer;
  std::vector<Example> examples = ds.train;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    model_->OnEpochBegin(ds, &rng);
    rng.Shuffle(&examples);
    std::vector<Example> epoch_examples = examples;
    if (options_.max_examples_per_epoch > 0 &&
        static_cast<int>(epoch_examples.size()) >
            options_.max_examples_per_epoch) {
      epoch_examples.resize(options_.max_examples_per_epoch);
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = RunEpoch(epoch_examples, &rng);
    stats.seconds = timer.ElapsedSeconds();
    result.examples_seen += static_cast<int64_t>(epoch_examples.size());
    if (eval_per_epoch) {
      stats.test_auc = Evaluate(ds, /*max_examples=*/2000).auc;
    }
    if (options_.verbose) {
      ZLOG(INFO) << model_->name() << " epoch " << epoch
                 << " loss=" << stats.mean_loss << " t=" << stats.seconds
                 << "s"
                 << (eval_per_epoch ? " auc=" + std::to_string(stats.test_auc)
                                    : "");
    }
    result.epochs.push_back(stats);
  }
  result.total_seconds = timer.ElapsedSeconds();
  // One final catch-up so graph_epoch reflects batches that landed during
  // the tail of the last epoch.
  MaybeRefreshGraphView();
  result.graph_refreshes = graph_refreshes_;
  result.graph_epoch = last_graph_epoch_;
  return result;
}

TimeToAucResult ZoomerTrainer::TrainUntilAuc(const data::RetrievalDataset& ds,
                                             double target_auc,
                                             int max_epochs) {
  TimeToAucResult result;
  Rng rng(options_.seed);
  WallTimer timer;
  std::vector<Example> examples = ds.train;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    model_->OnEpochBegin(ds, &rng);
    rng.Shuffle(&examples);
    std::vector<Example> epoch_examples = examples;
    if (options_.max_examples_per_epoch > 0 &&
        static_cast<int>(epoch_examples.size()) >
            options_.max_examples_per_epoch) {
      epoch_examples.resize(options_.max_examples_per_epoch);
    }
    RunEpoch(epoch_examples, &rng);
    const double auc = Evaluate(ds, /*max_examples=*/1500).auc;
    ++result.epochs;
    result.best_auc = std::max(result.best_auc, auc);
    if (auc >= target_auc) {
      result.reached = true;
      break;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

EvalResult ZoomerTrainer::Evaluate(const data::RetrievalDataset& ds,
                                   int max_examples) const {
  EvalResult result;
  Rng rng(options_.seed + 17);
  std::vector<float> scores, labels;
  size_t n = ds.test.size();
  if (max_examples > 0) n = std::min(n, static_cast<size_t>(max_examples));
  scores.reserve(n);
  labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& ex = ds.test[i];
    const float logit = model_->ScoreLogit(ex, &rng).item();
    const float p = 1.0f / (1.0f + std::exp(-logit));
    scores.push_back(p);
    labels.push_back(ex.label);
  }
  result.auc = eval::Auc(scores, labels);
  result.mae = eval::Mae(scores, labels);
  result.rmse = eval::Rmse(scores, labels);
  return result;
}

void ZoomerTrainer::EvaluateHitRate(const data::RetrievalDataset& ds,
                                    EvalResult* result,
                                    int max_positives) const {
  Rng rng(options_.seed + 29);
  const size_t pool = ds.all_items.size();
  const int d = model_->embedding_dim();

  // Twin-tower fast path: precompute item embeddings once.
  std::vector<std::vector<float>> item_emb;
  std::vector<size_t> item_index;
  const bool twin = model_->has_twin_tower();
  if (twin) {
    item_emb.resize(pool);
    item_index.assign(ds.graph.num_nodes(), SIZE_MAX);
    for (size_t i = 0; i < pool; ++i) {
      item_emb[i] = model_->ItemEmbeddingInference(ds.all_items[i]);
      item_index[ds.all_items[i]] = i;
    }
  }
  const CosineScorer scorer;
  auto cosine = [&](const std::vector<float>& a, const std::vector<float>& b) {
    return scorer.Score(a.data(), b.data(), d);
  };

  std::vector<int> positive_ranks;
  for (const auto& ex : ds.test) {
    if (ex.label < 0.5f) continue;
    if (static_cast<int>(positive_ranks.size()) >= max_positives) break;
    if (twin) {
      const auto uq =
          model_->UserQueryEmbeddingInference(ex.user, ex.query, &rng);
      const size_t target = item_index[ex.item];
      if (target == SIZE_MAX) continue;
      const double target_score = cosine(uq, item_emb[target]);
      int rank = 0;
      for (size_t i = 0; i < pool; ++i) {
        if (i == target) continue;
        if (cosine(uq, item_emb[i]) >= target_score) ++rank;
      }
      positive_ranks.push_back(rank);
    } else {
      std::vector<float> scores;
      model_->ScorePool(ex.user, ex.query, ds.all_items, &rng, &scores);
      float target_score = 0.0f;
      bool found = false;
      for (size_t i = 0; i < pool; ++i) {
        if (ds.all_items[i] == ex.item) {
          target_score = scores[i];
          found = true;
          break;
        }
      }
      if (!found) continue;
      int rank = 0;
      for (size_t i = 0; i < pool; ++i) {
        if (ds.all_items[i] == ex.item) continue;
        if (scores[i] >= target_score) ++rank;
      }
      positive_ranks.push_back(rank);
    }
  }
  for (int k = 0; k < 3; ++k) {
    result->hitrate_at[k] =
        eval::HitRateAtK(positive_ranks, EvalResult::kHitRateKs[k]);
  }
}

}  // namespace core
}  // namespace zoomer
