// Dense 2-D float tensor with reverse-mode automatic differentiation.
//
// This is the numerical substrate for every learned model in the repository
// (the Zoomer multi-level attention networks and all GNN baselines). The
// design mirrors a minimal PyTorch: a Tensor is a shared handle to a
// TensorImpl holding data, a gradient buffer, parent links, and a backward
// function. Calling Backward() on a scalar tensor runs reverse-mode
// differentiation over the dynamically recorded graph (the tape).
//
// All tensors are row-major (rows x cols). Scalars are 1x1.
//
// Tape contract:
// - Traversal order is gradient-accumulation order. Backward() visits the
//   op outputs reachable from the loss in reverse postorder of a
//   depth-first walk over `parents` (in parent order), and each node adds
//   into its parents' grad buffers when visited. Float addition does not
//   associate, so that order fixes every gradient bit; changing it changes
//   the trained weights.
// - Grads are eager for leaves and lazy for op outputs. The factories
//   (Zeros, Full, Randn, Xavier, FromVector, Scalar) allocate a zeroed grad
//   when requires_grad, so grad_at on an untouched parameter reads 0. An op
//   output allocates its grad on the first accumulation into it; one that
//   Backward never reaches holds none and is skipped.
// - Leaves (tensors without a backward function, i.e. parameters and
//   constants) are never marked or pushed during traversal; only their grad
//   buffers are written, by their consumers' backward functions.
// - A fused op (StackRows, SoftmaxColumn, ColSum, GatherRows) must stay
//   bit-identical, in forward values and in input gradients, to the
//   composite of primitive ops it replaces. Where the composite rounds an
//   intermediate before adding it to a parent's grad, the fused op
//   materializes the same intermediate, so floating-point contraction
//   cannot merge the product into the accumulation. Where the composite
//   reduces products (a dot), the fused op calls the composite's compiled
//   kernel: whether the compiler contracts a reduction depends on the loop
//   around it. tensor_test compares each fused op with its composite.
#ifndef ZOOMER_TENSOR_TENSOR_H_
#define ZOOMER_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace zoomer {
namespace tensor {

/// Tracks the number of floats allocated for tensor storage since the last
/// reset. Used by the Fig. 4(a) motivation benchmark to report the memory
/// growth of neighborhood expansion.
class AllocationTracker {
 public:
  static void Reset() { allocated_floats_.store(0, std::memory_order_relaxed); }
  static void Record(int64_t n) {
    allocated_floats_.fetch_add(n, std::memory_order_relaxed);
  }
  static int64_t allocated_floats() {
    return allocated_floats_.load(std::memory_order_relaxed);
  }
  static int64_t allocated_bytes() { return allocated_floats() * 4; }

 private:
  static std::atomic<int64_t> allocated_floats_;
};

struct TensorImpl;

/// Propagates self.grad into the grad buffers of self.parents, reading any
/// op state stored in self.
using BackwardFn = void (*)(TensorImpl& self);

struct TensorImpl {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> data;
  // Eager for leaves that require grad, lazy (empty until the first
  // accumulation) for op outputs.
  std::vector<float> grad;
  bool requires_grad = false;
  // Last Backward() call that reached this node (op outputs only).
  uint64_t visit_mark = 0;
  // The only owners of the inputs' history; drained iteratively on
  // destruction so a long op chain does not recurse.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  // Null for leaves.
  BackwardFn backward_fn = nullptr;
  // Op state read by backward_fn: a scalar constant (scale, slope, eps,
  // gamma), per-row floats saved by the forward pass (norms, labels) and
  // gather indices.
  float op_scalar = 0.0f;
  std::vector<float> saved;
  std::vector<int64_t> index;

  ~TensorImpl();

  int64_t size() const { return rows * cols; }
  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Shared handle to a tensor. Copies alias the same storage.
class Tensor {
 public:
  Tensor() : impl_(nullptr) {}
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// rows x cols tensor of zeros.
  static Tensor Zeros(int64_t rows, int64_t cols, bool requires_grad = false);
  /// rows x cols tensor filled with value.
  static Tensor Full(int64_t rows, int64_t cols, float value,
                     bool requires_grad = false);
  /// Gaussian init with given stddev (mean 0).
  static Tensor Randn(int64_t rows, int64_t cols, Rng* rng, float stddev,
                      bool requires_grad = false);
  /// Xavier/Glorot uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor Xavier(int64_t rows, int64_t cols, Rng* rng,
                       bool requires_grad = false);
  /// Wraps an existing row-major buffer (copied).
  static Tensor FromVector(const std::vector<float>& values, int64_t rows,
                           int64_t cols, bool requires_grad = false);
  /// 1x1 scalar.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  int64_t rows() const { return impl_->rows; }
  int64_t cols() const { return impl_->cols; }
  int64_t size() const { return impl_->size(); }
  bool requires_grad() const { return impl_->requires_grad; }

  float* data() { return impl_->data.data(); }
  const float* data() const { return impl_->data.data(); }
  float* grad_data() {
    impl_->EnsureGrad();
    return impl_->grad.data();
  }
  const std::vector<float>& grad_vector() const { return impl_->grad; }

  float at(int64_t i, int64_t j) const {
    ZCHECK(i >= 0 && i < rows() && j >= 0 && j < cols())
        << "index (" << i << "," << j << ") out of range for " << rows() << "x"
        << cols();
    return impl_->data[i * cols() + j];
  }
  float& at(int64_t i, int64_t j) {
    ZCHECK(i >= 0 && i < rows() && j >= 0 && j < cols());
    return impl_->data[i * cols() + j];
  }
  /// Scalar value of a 1x1 tensor.
  float item() const {
    ZCHECK_EQ(size(), 1);
    return impl_->data[0];
  }
  float grad_at(int64_t i, int64_t j) const {
    ZCHECK(impl_->requires_grad);
    ZCHECK_EQ(static_cast<int64_t>(impl_->grad.size()), size());
    return impl_->grad[i * cols() + j];
  }

  /// Zeroes this tensor's gradient buffer (does not touch ancestors).
  void ZeroGrad() {
    if (impl_->requires_grad) impl_->grad.assign(impl_->data.size(), 0.0f);
  }

  /// Reverse-mode backprop from this scalar tensor: seeds d(self)/d(self)=1
  /// and propagates through the recorded graph in reverse topological order
  /// (see the tape contract at the top of this file).
  void Backward();

  /// Detached copy sharing no autograd history (fresh storage).
  Tensor Detach() const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  std::string ShapeString() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// ---------------------------------------------------------------------------
// Differentiable operators. Every op returns a fresh tensor whose backward_fn
// scatters gradients into its parents (StackRows of one part returns that
// part). Ops requiring shape agreement ZCHECK.
// ---------------------------------------------------------------------------

/// C = A · B. A: (n,k), B: (k,m).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Elementwise sum; b may also be (1,cols) for row broadcast or 1x1 scalar.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference (same shapes).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product; b may be (rows,1) for column broadcast.
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * s for scalar constant s.
Tensor Scale(const Tensor& a, float s);
/// a + s elementwise for scalar constant s.
Tensor AddScalar(const Tensor& a, float s);
/// Elementwise sigmoid.
Tensor Sigmoid(const Tensor& a);
/// Elementwise tanh.
Tensor Tanh(const Tensor& a);
/// Elementwise ReLU.
Tensor Relu(const Tensor& a);
/// Elementwise LeakyReLU with negative slope.
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
/// Elementwise natural exp.
Tensor Exp(const Tensor& a);
/// Elementwise natural log of (a + eps).
Tensor Log(const Tensor& a, float eps = 1e-12f);
/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& a);
/// Transpose.
Tensor Transpose(const Tensor& a);
/// Horizontal concatenation [a | b].
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation [a ; b].
Tensor ConcatRows(const Tensor& a, const Tensor& b);
/// Sum of all entries -> 1x1.
Tensor SumAll(const Tensor& a);
/// Mean of all entries -> 1x1.
Tensor MeanAll(const Tensor& a);
/// Per-row sum -> (rows,1).
Tensor SumRowsTo1(const Tensor& a);
/// Column-wise mean over rows -> (1,cols).
Tensor MeanRows(const Tensor& a);
/// Gathers rows by index; gradient scatter-adds. idx values in [0, a.rows).
Tensor Rows(const Tensor& a, const std::vector<int64_t>& idx);
/// Row-wise dot product of equal-shaped a,b -> (rows,1).
Tensor RowwiseDot(const Tensor& a, const Tensor& b);
/// Row-wise cosine similarity of equal-shaped a,b -> (rows,1).
Tensor RowwiseCosine(const Tensor& a, const Tensor& b, float eps = 1e-8f);
/// L2-normalizes each row.
Tensor NormalizeRows(const Tensor& a, float eps = 1e-8f);
/// Repeats a (1,cols) row vector n times -> (n,cols).
Tensor TileRows(const Tensor& a, int64_t n);

// Fused ops: one tape node each, bit-identical to the composite named.

/// Vertical stack of equal-width parts -> (sum of rows, cols). Composite:
/// a left-to-right ConcatRows chain. One part is returned as is.
Tensor StackRows(const std::vector<Tensor>& parts);
/// Softmax down each column -> same shape. Composite:
/// Transpose(SoftmaxRows(Transpose(a))).
Tensor SoftmaxColumn(const Tensor& a);
/// Column sum of (n,cols) -> (1,cols). Composite:
/// MatMul(Tensor::Full(1, n, 1.0f), a).
Tensor ColSum(const Tensor& a);
/// Row r of the result is row idx[r] of tables[r] -> (idx.size(), cols).
/// Composite: a ConcatRows chain over Rows(tables[r], {idx[r]}).
Tensor GatherRows(const std::vector<Tensor>& tables,
                  std::span<const int64_t> idx);

/// Numerically stable mean binary cross-entropy with logits:
/// mean over rows of log(1+exp(x)) - y*x. logits,labels: (n,1).
Tensor BceWithLogits(const Tensor& logits, const Tensor& labels);

/// Focal binary cross-entropy with logits (Lin et al.), gamma = focusing
/// parameter; the paper trains Zoomer with focal weight 2 (Sec. VII-A).
/// loss_i = -(1-p_i)^g * y_i * log(p_i) - p_i^g * (1-y_i) * log(1-p_i).
Tensor FocalBceWithLogits(const Tensor& logits, const Tensor& labels,
                          float gamma = 2.0f);

/// Sum of squares of all entries (for L2 regularization) -> 1x1.
Tensor SquaredNorm(const Tensor& a);

}  // namespace tensor
}  // namespace zoomer

#endif  // ZOOMER_TENSOR_TENSOR_H_
