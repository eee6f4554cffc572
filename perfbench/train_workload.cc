// `train` workload: single-threaded Zoomer training on a fixed budget (two
// epochs of 2000 examples) with a fixed seed, then a held-out evaluation on
// a fixed test slice. It exercises core (ROI sampling, attention) and
// tensor (autograd, Adam) with serving idle.
//
// The benchmark drives the same loop as ZoomerTrainer::Train through public
// calls (same seed, shuffles and batch boundaries), so it can time each
// example and, in the traced run, put spans around ScoreLogit, Backward and
// Adam::Step. Its per-epoch mean losses must equal ZoomerTrainer::Train's
// bit for bit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "common.h"
#include "core/trainer.h"
#include "tensor/optimizer.h"

namespace perfbench {
namespace {

using zoomer::Rng;
using zoomer::tensor::Tensor;

constexpr int kEpochExamples = 2000;  // examples per epoch
constexpr int kEpochs = 2;            // epochs per repetition (the budget)
constexpr int kEvalExamples = 1000;   // fixed test slice
// The held-out log loss must fall by at least this share over the budget
// (it falls by 23-38% on seeds 601-608); an optimizer that does not learn
// leaves it where the untrained model had it.
constexpr double kMinLossDrop = 0.15;
// Set-up is ~0.06 s, so its median needs many repetitions to be steady.
constexpr int kSetupReps = 31;

zoomer::baselines::ModelParams ModelParamsFor(uint64_t seed) {
  zoomer::baselines::ModelParams params;
  params.hidden_dim = 16;
  params.sample_k = 5;  // paper: sampling number 5
  params.num_hops = 2;
  params.seed = seed;
  return params;
}

zoomer::core::TrainOptions TrainOptionsFor(uint64_t seed) {
  zoomer::core::TrainOptions topt;
  topt.epochs = kEpochs;
  topt.batch_size = 128;
  topt.learning_rate = 0.01f;
  topt.max_examples_per_epoch = kEpochExamples;
  topt.seed = seed;
  return topt;
}

struct RepOutcome {
  std::vector<double> mean_loss;         // per epoch
  std::vector<double> epoch_s;           // wall time per epoch
  std::vector<double> epoch_example_ms;  // mean forward + backward per epoch
  std::vector<double> example_ms;        // forward + backward per example
};

/// One epoch of ZoomerTrainer::RunEpoch's loop. With `spans`, records
/// forward/backward/step spans and the ROI-sampling time inside each
/// forward.
void RunEpoch(const std::vector<zoomer::data::Example>& examples,
              zoomer::core::ScoringModel* model,
              zoomer::tensor::Adam* optimizer,
              const zoomer::core::TrainOptions& topt, Rng* rng,
              SpanLog* spans, RepOutcome* out) {
  zoomer::obs::Histogram* roi_hist =
      RegistryWindow::Registry()->GetHistogram("sampler.batch_latency_us");
  double loss_sum = 0.0, example_sum_ms = 0.0;
  int64_t count = 0;
  int in_batch = 0;
  const int64_t t0 = NowNs();
  optimizer->ZeroGrad();
  for (const auto& ex : examples) {
    const int64_t f0 = NowNs();
    const int64_t roi0 = spans != nullptr ? roi_hist->Snapshot().sum() : 0;
    Tensor logit = model->ScoreLogit(ex, rng);
    Tensor label = Tensor::Scalar(ex.label);
    Tensor loss = topt.use_focal_loss
                      ? FocalBceWithLogits(logit, label, topt.focal_gamma)
                      : BceWithLogits(logit, label);
    loss_sum += loss.item();
    ++count;
    const int64_t f1 = NowNs();
    Tensor scaled = Scale(loss, 1.0f / static_cast<float>(topt.batch_size));
    scaled.Backward();
    const int64_t b1 = NowNs();
    out->example_ms.push_back(static_cast<double>(b1 - f0) / 1e6);
    example_sum_ms += out->example_ms.back();
    if (spans != nullptr) {
      const int64_t roi_us = roi_hist->Snapshot().sum() - roi0;
      spans->Record(kSpanForward, count, f0, f1);
      spans->Record(kSpanRoiInForward, count, f0, f0 + roi_us * 1000);
      spans->Record(kSpanBackward, count, f1, b1);
    }
    if (++in_batch >= topt.batch_size) {
      const int64_t s0 = NowNs();
      optimizer->Step();
      optimizer->ZeroGrad();
      if (spans != nullptr) spans->Record(kSpanStep, count, s0, NowNs());
      in_batch = 0;
    }
  }
  if (in_batch > 0) optimizer->Step();
  out->epoch_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  out->epoch_example_ms.push_back(
      count > 0 ? example_sum_ms / static_cast<double>(count) : 0.0);
  out->mean_loss.push_back(count > 0 ? loss_sum / static_cast<double>(count)
                                     : 0.0);
}

/// One repetition of ZoomerTrainer::Train's epoch loop on `model`: one Rng
/// and one optimizer across the epochs, the example list shuffled in place
/// each epoch and cut to the epoch budget.
RepOutcome RunBudget(const zoomer::data::RetrievalDataset& ds,
                     zoomer::core::ScoringModel* model,
                     const zoomer::core::TrainOptions& topt, SpanLog* spans) {
  zoomer::tensor::Adam optimizer(model->Parameters(), topt.learning_rate,
                                 0.9f, 0.999f, 1e-8f, topt.weight_decay);
  Rng rng(topt.seed);
  std::vector<zoomer::data::Example> examples = ds.train;
  RepOutcome out;
  out.example_ms.reserve(static_cast<size_t>(topt.epochs) *
                         topt.max_examples_per_epoch);
  for (int epoch = 0; epoch < topt.epochs; ++epoch) {
    model->OnEpochBegin(ds, &rng);
    rng.Shuffle(&examples);
    std::vector<zoomer::data::Example> epoch_examples = examples;
    if (static_cast<int>(epoch_examples.size()) >
        topt.max_examples_per_epoch) {
      epoch_examples.resize(topt.max_examples_per_epoch);
    }
    RunEpoch(epoch_examples, model, &optimizer, topt, &rng, spans, &out);
  }
  return out;
}

/// Mean log loss (BCE) of `model` on the first kEvalExamples test examples,
/// with a fixed sampling seed, so it is a deterministic function of the
/// model's weights.
double HeldOutLogLoss(const zoomer::data::RetrievalDataset& ds,
                      zoomer::core::ScoringModel* model, uint64_t seed) {
  Rng rng(seed + 17);
  const size_t n = std::min<size_t>(ds.test.size(), kEvalExamples);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto& ex = ds.test[i];
    sum += BceWithLogits(model->ScoreLogit(ex, &rng), Tensor::Scalar(ex.label))
               .item();
  }
  return n > 0 ? sum / static_cast<double>(n) : NAN;
}

}  // namespace

int RunTrain(const Args& args, Result* result) {
  std::printf("workload train: seed %llu, %.0f s window, trace %d\n",
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("thread budget: 1 training thread (no pools)\n");

  // ---- Set-up: data generation, repeated; the median is setup_s. --------
  std::vector<double> setup_s;
  auto ds = RepeatSetup(kSetupReps, &setup_s, [&] {
    return std::make_unique<zoomer::data::RetrievalDataset>(
        zoomer::data::GenerateTaobaoDataset(HundredMillionScale(args.seed)));
  });
  PrintSetup(setup_s);
  std::printf("graph: %s; %zu train / %zu test examples\n",
              ds->graph.DebugString().c_str(), ds->train.size(),
              ds->test.size());
  const auto params = ModelParamsFor(args.seed);
  const auto topt = TrainOptionsFor(args.seed);
  const int budget = kEpochs * kEpochExamples;

  // ---- Measured window: repetitions of the fixed budget. ----------------
  // A traced run first times one untraced repetition, the base of
  // trace.overhead_frac.
  SpanLog spans;
  RegistryWindow window;
  double untraced_rate = 0.0;
  if (args.trace) {
    auto model = zoomer::baselines::MakeModel("Zoomer", &ds->graph, params);
    const RepOutcome rep = RunBudget(*ds, model.get(), topt, nullptr);
    double s = 0.0;
    for (double e : rep.epoch_s) s += e;
    untraced_rate = budget / s;
  }
  window.Begin();
  std::vector<RepOutcome> reps;
  std::unique_ptr<zoomer::core::ScoringModel> last_model;
  const int64_t w0 = NowNs();
  double elapsed = 0.0, last_s = 0.0;
  // At least two repetitions; start another only if it fits the window.
  while (reps.size() < 2 || elapsed + last_s <= args.seconds) {
    last_model = zoomer::baselines::MakeModel("Zoomer", &ds->graph, params);
    const int64_t r0 = NowNs();
    reps.push_back(RunBudget(*ds, last_model.get(), topt,
                             args.trace ? &spans : nullptr));
    last_s = static_cast<double>(NowNs() - r0) / 1e9;
    elapsed = static_cast<double>(NowNs() - w0) / 1e9;
  }
  window.End();

  // ---- Quality and the reference run (outside the window). --------------
  // The untrained model has the same initial weights as every repetition.
  auto untrained = zoomer::baselines::MakeModel("Zoomer", &ds->graph, params);
  const double loss_before = HeldOutLogLoss(*ds, untrained.get(), args.seed);
  const double loss_after = HeldOutLogLoss(*ds, last_model.get(), args.seed);
  const double loss_drop = 1.0 - loss_after / loss_before;
  const double likelihood = std::exp(-loss_after);
  zoomer::core::ZoomerTrainer evaluator(last_model.get(), topt);
  const double auc = evaluator.Evaluate(*ds, kEvalExamples).auc;
  auto ref_model = zoomer::baselines::MakeModel("Zoomer", &ds->graph, params);
  zoomer::core::ZoomerTrainer reference(ref_model.get(), topt);
  std::vector<double> ref_loss;
  for (const auto& e : reference.Train(*ds).epochs) {
    ref_loss.push_back(e.mean_loss);
  }

  std::vector<double> rates, epoch_example_ms, example_ms;
  bool same_loss = true;
  for (const RepOutcome& r : reps) {
    for (double e : r.epoch_s) rates.push_back(kEpochExamples / e);
    epoch_example_ms.insert(epoch_example_ms.end(),
                            r.epoch_example_ms.begin(),
                            r.epoch_example_ms.end());
    example_ms.insert(example_ms.end(), r.example_ms.begin(),
                      r.example_ms.end());
    same_loss = same_loss && r.mean_loss == reps[0].mean_loss;
  }
  const std::vector<double>& loss = reps[0].mean_loss;
  std::printf("\n%zu repetitions of %d epochs x %d examples in %.2f s\n",
              reps.size(), kEpochs, kEpochExamples, elapsed);
  for (size_t e = 0; e < loss.size(); ++e) {
    std::printf("  epoch %zu mean loss %.9f, reference Train %.9f\n", e,
                loss[e], e < ref_loss.size() ? ref_loss[e] : NAN);
  }
  std::printf("held-out log loss %.4f untrained -> %.4f trained (drop %.3f); "
              "AUC %.4f\n",
              loss_before, loss_after, loss_drop, auc);
  PrintTiming("example fwd+bwd", example_ms, "ms");

  result->Check("every repetition gives the same mean losses", same_loss);
  result->Check("loop reproduces ZoomerTrainer::Train's mean losses exactly",
                loss == ref_loss);
  result->Check("loss and AUC are finite",
                std::isfinite(loss_after) && std::isfinite(auc));
  result->Check("held-out log loss falls by at least 15% over the budget",
                loss_drop >= kMinLossDrop);
  std::sort(example_ms.begin(), example_ms.end());
  result->Check("p99 has at least 10 samples beyond it",
                TailSupported(static_cast<int64_t>(example_ms.size()), 99));
  result->Count(static_cast<int64_t>(reps.size()) * budget, 0);

  const double examples_per_s = Median(rates);
  result->Named("train.examples_per_s", examples_per_s, "ex/s");
  result->Named("train.auc", auc, "AUC");
  result->Named("train.heldout_loss_drop", loss_drop, "ratio");
  result->E2e("setup_s", Median(setup_s), "s");
  result->E2e("peak_rss_mb", PeakRssMb(), "MiB");
  result->Named("train.example_p50_ms", Percentile(example_ms, 50), "ms");
  result->Named("train.example_p99_ms", Percentile(example_ms, 99), "ms");
  result->E2e("latency_ms", Median(epoch_example_ms), "ms");
  result->E2e("throughput_per_s", examples_per_s, "1/s");
  result->E2e("quality", likelihood, "ratio");

  if (args.trace) {
    const auto fwd = spans.DurationsUs(kSpanForward);
    const auto bwd = spans.DurationsUs(kSpanBackward);
    const auto step = spans.DurationsUs(kSpanStep);
    // Self time of the forward: its span minus the ROI sampling inside it.
    std::vector<double> self;
    {
      const auto all = spans.All();
      std::vector<double> fwd_by_ex, roi_by_ex;
      for (const Span& s : all) {
        const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        if (s.name == kSpanForward) fwd_by_ex.push_back(us);
        if (s.name == kSpanRoiInForward) roi_by_ex.push_back(us);
      }
      for (size_t i = 0; i < fwd_by_ex.size() && i < roi_by_ex.size(); ++i) {
        self.push_back(fwd_by_ex[i] - roi_by_ex[i]);
      }
      std::sort(self.begin(), self.end());
    }
    result->Layer("core.forward_us.p50", Percentile(fwd, 50), "us");
    result->Layer("core.forward_us.p99", Percentile(fwd, 99), "us");
    result->Layer("core.forward_self_us.p50", Percentile(self, 50), "us");
    result->Layer("core.roi_sample_us.p50",
                  window.HistPercentile("sampler.batch_latency_us", 50), "us");
    result->Layer("core.roi_sample_us.p99",
                  window.HistPercentile("sampler.batch_latency_us", 99), "us");
    result->Layer("tensor.backward_us.p50", Percentile(bwd, 50), "us");
    result->Layer("tensor.backward_us.p99", Percentile(bwd, 99), "us");
    result->Layer("tensor.step_us.p50", Percentile(step, 50), "us");
    result->Layer("setup.generate_s", Median(setup_s), "s");
    result->Layer("latency_p99_ms", Percentile(example_ms, 99), "ms");
    result->Layer("trace.overhead_frac",
                  untraced_rate / examples_per_s - 1.0, "ratio");
  }
  return 0;
}

}  // namespace perfbench
