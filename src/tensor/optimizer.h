// First-order optimizers over a parameter list. These dense optimizers drive
// all training, which is single-process; there is no per-key sparse
// variant.
#ifndef ZOOMER_TENSOR_OPTIMIZER_H_
#define ZOOMER_TENSOR_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace zoomer {
namespace tensor {

/// Base optimizer: owns the parameter list; Step() applies one update from
/// the gradients currently accumulated in the parameters.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update step in-place.
  virtual void Step() = 0;

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  /// Adds a parameter after construction (state is allocated lazily).
  virtual void AddParam(const Tensor& p) { params_.push_back(p); }

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

/// Plain SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f)
      : Optimizer(std::move(params)),
        lr_(lr),
        momentum_(momentum),
        weight_decay_(weight_decay) {}

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction and L2 weight decay.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f)
      : Optimizer(std::move(params)),
        lr_(lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {}

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  int64_t step_count() const { return t_; }

 private:
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Adagrad: per-coordinate learning-rate adaptation; well-suited to the
/// highly sparse embedding gradients this codebase produces.
class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<Tensor> params, float lr, float eps = 1e-10f)
      : Optimizer(std::move(params)), lr_(lr), eps_(eps) {}

  void Step() override;

 private:
  float lr_, eps_;
  std::vector<std::vector<float>> accum_;
};

}  // namespace tensor
}  // namespace zoomer

#endif  // ZOOMER_TENSOR_OPTIMIZER_H_
