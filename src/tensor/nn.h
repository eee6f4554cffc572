// Small neural-network building blocks shared by the Zoomer towers and the
// GNN baselines: Linear layers, MLPs, and dense embedding tables.
#ifndef ZOOMER_TENSOR_NN_H_
#define ZOOMER_TENSOR_NN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "tensor/tensor.h"

namespace zoomer {
namespace tensor {

enum class Activation { kNone, kRelu, kLeakyRelu, kTanh, kSigmoid };

/// Applies the given activation.
Tensor Activate(const Tensor& x, Activation act);

/// Fully connected layer y = x·W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_dim, int64_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() const { return {weight_, bias_}; }
  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }

 private:
  Tensor weight_;
  Tensor bias_;
};

/// Multi-layer perceptron with a shared activation on hidden layers and an
/// optional activation on the output layer.
class Mlp {
 public:
  Mlp() = default;
  /// dims = {in, hidden..., out}.
  Mlp(const std::vector<int64_t>& dims, Rng* rng,
      Activation hidden_act = Activation::kRelu,
      Activation out_act = Activation::kNone);

  Tensor Forward(const Tensor& x) const;
  std::vector<Tensor> Parameters() const;

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_ = Activation::kRelu;
  Activation out_act_ = Activation::kNone;
};

/// Dense trainable embedding table (vocab x dim). Lookup gathers rows with a
/// scatter-add gradient, matching sparse training semantics at small scale.
/// There is no sharded or sparse variant; every model trains in process.
class Embedding {
 public:
  Embedding() = default;
  Embedding(int64_t vocab, int64_t dim, Rng* rng, float stddev = 0.05f);

  /// ids must be in [0, vocab).
  Tensor Lookup(const std::vector<int64_t>& ids) const;

  Tensor table() const { return table_; }
  std::vector<Tensor> Parameters() const { return {table_}; }
  int64_t vocab() const { return table_.rows(); }
  int64_t dim() const { return table_.cols(); }

 private:
  Tensor table_;
};

}  // namespace tensor
}  // namespace zoomer

#endif  // ZOOMER_TENSOR_NN_H_
