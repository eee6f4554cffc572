// Single-process training/evaluation loop for ZoomerModel and the metrics
// reported in the paper's offline experiments (AUC, MAE, RMSE, HitRate@K).
// This single-process trainer is the reference implementation used by most
// benches; the repository has no distributed training path.
#ifndef ZOOMER_CORE_TRAINER_H_
#define ZOOMER_CORE_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "core/model_interface.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "tensor/optimizer.h"

namespace zoomer {
namespace core {

struct TrainOptions {
  int epochs = 2;
  int batch_size = 128;
  float learning_rate = 0.01f;
  /// Paper Sec. VII-A: focal cross-entropy loss with focal weight 2.
  bool use_focal_loss = true;
  float focal_gamma = 2.0f;
  /// L2 regularization weight (paper: 1e-6 for Zoomer).
  float weight_decay = 1e-6f;
  /// Cap on examples per epoch (0 = all); used by benches to equalize cost.
  int max_examples_per_epoch = 0;
  uint64_t seed = 1234;
  bool verbose = false;
};

struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double seconds = 0.0;     // cumulative wall time at epoch end
  double test_auc = 0.0;    // filled when eval_per_epoch
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;
  int64_t examples_seen = 0;
  /// Streaming freshness: times the dynamic graph view was re-pinned at a
  /// minibatch boundary, and the graph epoch visible when training ended
  /// (both 0 for a purely static run).
  int64_t graph_refreshes = 0;
  uint64_t graph_epoch = 0;
};

/// Outcome of TrainUntilAuc (Fig. 10 protocol).
struct TimeToAucResult {
  double seconds = 0.0;   // wall time until the target or the epoch cap
  bool reached = false;   // the held-out AUC reached the target
  double best_auc = 0.0;  // best held-out AUC over the epochs run
  int epochs = 0;         // epochs run
};

struct EvalResult {
  double auc = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
  double hitrate_at[3] = {0.0, 0.0, 0.0};  // K = 100, 200, 300
  static constexpr int kHitRateKs[3] = {100, 200, 300};
};

/// Trains and evaluates any ScoringModel (ZoomerModel or a baseline).
class ZoomerTrainer {
 public:
  ZoomerTrainer(ScoringModel* model, TrainOptions options);

  /// Runs the configured number of epochs of minibatch Adam over the train
  /// split. If eval_per_epoch is set, fills EpochStats::test_auc after each
  /// epoch (used by the time-to-AUC scalability experiment, Fig. 10).
  TrainResult Train(const data::RetrievalDataset& ds,
                    bool eval_per_epoch = false);

  /// Like Train, but stops as soon as the test AUC reaches `target_auc` or
  /// after `max_epochs`, whichever comes first (Fig. 10 protocol). The
  /// result says which: a run that hits the cap reports reached = false.
  TimeToAucResult TrainUntilAuc(const data::RetrievalDataset& ds,
                                double target_auc, int max_epochs);

  /// CTR metrics on the test split.
  EvalResult Evaluate(const data::RetrievalDataset& ds,
                      int max_examples = 0) const;

  /// HitRate@{100,200,300} over the item candidate pool, computed with
  /// twin-tower retrieval (uq embedding against precomputed item matrix).
  void EvaluateHitRate(const data::RetrievalDataset& ds, EvalResult* result,
                       int max_positives = 200) const;

  /// Streaming freshness hooks. `refresh` runs on the training thread at
  /// minibatch boundaries whenever NotifyGraphUpdate() was raised since the
  /// last boundary; it should re-pin the model's dynamic graph view and
  /// return the epoch now visible. Wire both ends with
  /// streaming::AttachTrainingFreshness (which registers NotifyGraphUpdate
  /// as an ingest-pipeline update listener) — mini-batches drawn mid-ingest
  /// then sample freshly arrived edges without an intervening Compact().
  void SetGraphRefreshHook(std::function<uint64_t()> refresh) {
    graph_refresh_ = std::move(refresh);
  }
  /// Thread-safe signal that new delta batches landed (ingest threads).
  void NotifyGraphUpdate() {
    graph_updates_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  double RunEpoch(const std::vector<data::Example>& examples, Rng* rng);
  void MaybeRefreshGraphView();

  ScoringModel* model_;
  TrainOptions options_;
  tensor::Adam optimizer_;

  std::function<uint64_t()> graph_refresh_;
  std::atomic<int64_t> graph_updates_{0};
  int64_t consumed_graph_updates_ = 0;
  int64_t graph_refreshes_ = 0;
  uint64_t last_graph_epoch_ = 0;
};

}  // namespace core
}  // namespace zoomer

#endif  // ZOOMER_CORE_TRAINER_H_
