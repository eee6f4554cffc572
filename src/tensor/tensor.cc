#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace zoomer {
namespace tensor {

std::atomic<int64_t> AllocationTracker::allocated_floats_{0};

TensorImpl::~TensorImpl() {
  if (parents.empty()) return;
  // Releasing the last handle to a long op chain would otherwise destroy
  // it recursively, one stack frame per node. Take over the parents of
  // every node this one solely owns before it dies, so each dies childless.
  std::vector<std::shared_ptr<TensorImpl>> pending = std::move(parents);
  while (!pending.empty()) {
    std::shared_ptr<TensorImpl> node = std::move(pending.back());
    pending.pop_back();
    if (node.use_count() == 1) {
      for (auto& p : node->parents) pending.push_back(std::move(p));
      node->parents.clear();
    }
  }
}

namespace {

// An op output: zeroed data, no grad buffer until the first accumulation.
std::shared_ptr<TensorImpl> MakeImpl(int64_t rows, int64_t cols,
                                     bool requires_grad) {
  ZCHECK(rows > 0 && cols > 0) << "invalid shape " << rows << "x" << cols;
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<size_t>(rows * cols), 0.0f);
  impl->requires_grad = requires_grad;
  AllocationTracker::Record(rows * cols);
  return impl;
}

// A factory-made leaf: its grad buffer exists from the start.
std::shared_ptr<TensorImpl> MakeLeaf(int64_t rows, int64_t cols,
                                     bool requires_grad) {
  auto impl = MakeImpl(rows, cols, requires_grad);
  if (requires_grad) impl->EnsureGrad();
  return impl;
}

bool AnyRequiresGrad(const Tensor& a, const Tensor& b) {
  return a.requires_grad() || b.requires_grad();
}

// Links `out` to its inputs, in order; the op then sets its backward_fn.
template <typename... Inputs>
void SetParents(TensorImpl* out, const Inputs&... inputs) {
  out->parents.reserve(sizeof...(inputs));
  (out->parents.push_back(inputs.impl()), ...);
}

// Accumulates src into dst->grad (dst must require grad).
void Accumulate(TensorImpl* dst, const float* src, int64_t n) {
  dst->EnsureGrad();
  float* g = dst->grad.data();
  for (int64_t i = 0; i < n; ++i) g[i] += src[i];
}

}  // namespace

Tensor Tensor::Zeros(int64_t rows, int64_t cols, bool requires_grad) {
  return Tensor(MakeLeaf(rows, cols, requires_grad));
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value,
                    bool requires_grad) {
  auto impl = MakeLeaf(rows, cols, requires_grad);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(impl);
}

Tensor Tensor::Randn(int64_t rows, int64_t cols, Rng* rng, float stddev,
                     bool requires_grad) {
  auto impl = MakeLeaf(rows, cols, requires_grad);
  for (auto& v : impl->data) {
    v = static_cast<float>(rng->Normal()) * stddev;
  }
  return Tensor(impl);
}

Tensor Tensor::Xavier(int64_t rows, int64_t cols, Rng* rng,
                      bool requires_grad) {
  auto impl = MakeLeaf(rows, cols, requires_grad);
  float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (auto& v : impl->data) {
    v = (2.0f * rng->UniformFloat() - 1.0f) * limit;
  }
  return Tensor(impl);
}

Tensor Tensor::FromVector(const std::vector<float>& values, int64_t rows,
                          int64_t cols, bool requires_grad) {
  ZCHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  auto impl = MakeLeaf(rows, cols, requires_grad);
  impl->data = values;
  return Tensor(impl);
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

Tensor Tensor::Detach() const {
  auto impl = MakeImpl(rows(), cols(), false);
  impl->data = impl_->data;
  return Tensor(impl);
}

std::string Tensor::ShapeString() const {
  if (!defined()) return "<undefined>";
  return std::to_string(rows()) + "x" + std::to_string(cols());
}

void Tensor::Backward() {
  ZCHECK(defined());
  ZCHECK_EQ(size(), 1) << "Backward() requires a scalar loss";
  // Each call gets a fresh mark, so a node's visit_mark equals it iff this
  // walk has reached the node; no per-call set is built or cleared.
  static std::atomic<uint64_t> last_mark{0};
  const uint64_t mark = last_mark.fetch_add(1, std::memory_order_relaxed) + 1;
  thread_local std::vector<TensorImpl*> order;
  thread_local std::vector<std::pair<TensorImpl*, size_t>> stack;
  order.clear();
  // Postorder DFS over op outputs to get reverse topological order. Leaves
  // have nothing to propagate, so they are neither pushed nor marked.
  TensorImpl* root = impl_.get();
  if (root->backward_fn != nullptr) {
    root->visit_mark = mark;
    stack.emplace_back(root, 0);
  }
  while (!stack.empty()) {
    auto& [node, parent_idx] = stack.back();
    if (parent_idx < node->parents.size()) {
      TensorImpl* parent = node->parents[parent_idx].get();
      ++parent_idx;
      if (parent->backward_fn != nullptr && parent->visit_mark != mark) {
        parent->visit_mark = mark;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // order is postorder: parents before children; iterate in reverse so each
  // node's grad is complete before it propagates to parents. A node that
  // received no gradient holds no grad buffer and has nothing to pass on.
  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (!node->grad.empty()) node->backward_fn(*node);
  }
}

// ---------------------------------------------------------------------------
// Operators. Each backward_fn is a captureless lambda: it reads shapes back
// from self and its parents, and any other op state from self.
// ---------------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch " << a.ShapeString()
                                << " x " << b.ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  auto out = MakeImpl(n, m, AnyRequiresGrad(a, b));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = ad[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bd + p * m;
      float* orow = od + i * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = ai->rows, k = ai->cols, m = bi->cols;
      const float* g = self.grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA = G · B^T : (n,m)x(m,k)
        const float* bd2 = bi->data.data();
        float* ga = ai->grad.data();
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t p = 0; p < k; ++p) {
            float s = 0.0f;
            const float* grow = g + i * m;
            const float* brow = bd2 + p * m;
            for (int64_t j = 0; j < m; ++j) s += grow[j] * brow[j];
            ga[i * k + p] += s;
          }
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB = A^T · G : (k,n)x(n,m)
        const float* ad2 = ai->data.data();
        float* gb = bi->grad.data();
        for (int64_t i = 0; i < n; ++i) {
          const float* grow = g + i * m;
          for (int64_t p = 0; p < k; ++p) {
            const float av = ad2[i * k + p];
            if (av == 0.0f) continue;
            float* gbrow = gb + p * m;
            for (int64_t j = 0; j < m; ++j) gbrow[j] += av * grow[j];
          }
        }
      }
    };
  }
  return Tensor(out);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  const bool row_bcast = b.rows() == 1 && b.cols() == a.cols();
  const bool scalar_bcast = b.size() == 1;
  ZCHECK(same || row_bcast || scalar_bcast)
      << "Add shape mismatch " << a.ShapeString() << " + " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data.data();
  const int64_t n = a.rows(), m = a.cols();
  if (same) {
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] + bd[i];
  } else if (row_bcast) {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < m; ++j) od[i * m + j] = ad[i * m + j] + bd[j];
  } else {
    const float s = bd[0];
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] + s;
  }
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = ai->rows, m = ai->cols;
      const bool same = bi->rows == n && bi->cols == m;
      const bool row_bcast = bi->rows == 1 && bi->cols == m;
      const float* g = self.grad.data();
      if (ai->requires_grad) Accumulate(ai, g, n * m);
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad.data();
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) gb[i] += g[i];
        } else if (row_bcast) {
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < m; ++j) gb[j] += g[i * m + j];
        } else {
          float s = 0.0f;
          for (int64_t i = 0; i < n * m; ++i) s += g[i];
          gb[0] += s;
        }
      }
    };
  }
  return Tensor(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "Sub shape mismatch " << a.ShapeString() << " - " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] - b.data()[i];
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = self.size();
      const float* g = self.grad.data();
      if (ai->requires_grad) Accumulate(ai, g, n);
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (int64_t i = 0; i < n; ++i) bi->grad[i] -= g[i];
      }
    };
  }
  return Tensor(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  const bool col_bcast = b.cols() == 1 && b.rows() == a.rows();
  ZCHECK(same || col_bcast)
      << "Mul shape mismatch " << a.ShapeString() << " * " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const int64_t n = a.rows(), m = a.cols();
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data.data();
  if (same) {
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] * bd[i];
  } else {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < m; ++j) od[i * m + j] = ad[i * m + j] * bd[i];
  }
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = ai->rows, m = ai->cols;
      const bool same = bi->rows == n && bi->cols == m;
      const float* g = self.grad.data();
      const float* ad2 = ai->data.data();
      const float* bd2 = bi->data.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* ga = ai->grad.data();
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) ga[i] += g[i] * bd2[i];
        } else {
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < m; ++j) ga[i * m + j] += g[i * m + j] * bd2[i];
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* gb = bi->grad.data();
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) gb[i] += g[i] * ad2[i];
        } else {
          for (int64_t i = 0; i < n; ++i) {
            float s = 0.0f;
            for (int64_t j = 0; j < m; ++j) s += g[i * m + j] * ad2[i * m + j];
            gb[i] += s;
          }
        }
      }
    };
  }
  return Tensor(out);
}

Tensor Scale(const Tensor& a, float s) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] * s;
  if (out->requires_grad) {
    out->op_scalar = s;
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = self.size();
      const float s = self.op_scalar;
      ai->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += self.grad[i] * s;
    };
  }
  return Tensor(out);
}

Tensor AddScalar(const Tensor& a, float s) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] + s;
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      Accumulate(self.parents[0].get(), self.grad.data(), self.size());
    };
  }
  return Tensor(out);
}

namespace {

// Elementwise op y = Op::Fwd(x, s) with dy/dx = Op::Bwd(y, x, s), where s
// is the op's scalar constant (slope, eps) kept in op_scalar.
template <typename Op>
void UnaryBackward(TensorImpl& self) {
  TensorImpl* ai = self.parents[0].get();
  const int64_t n = self.size();
  const float s = self.op_scalar;
  ai->EnsureGrad();
  for (int64_t i = 0; i < n; ++i) {
    ai->grad[i] += self.grad[i] * Op::Bwd(self.data[i], ai->data[i], s);
  }
}

template <typename Op>
Tensor ElementwiseUnary(const Tensor& a, float s = 0.0f) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = Op::Fwd(a.data()[i], s);
  if (out->requires_grad) {
    out->op_scalar = s;
    SetParents(out.get(), a);
    out->backward_fn = UnaryBackward<Op>;
  }
  return Tensor(out);
}

struct SigmoidOp {
  static float Fwd(float x, float) {
    return x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                  : std::exp(x) / (1.0f + std::exp(x));
  }
  static float Bwd(float y, float, float) { return y * (1.0f - y); }
};

struct TanhOp {
  static float Fwd(float x, float) { return std::tanh(x); }
  static float Bwd(float y, float, float) { return 1.0f - y * y; }
};

struct ReluOp {
  static float Fwd(float x, float) { return x > 0 ? x : 0.0f; }
  static float Bwd(float, float x, float) { return x > 0 ? 1.0f : 0.0f; }
};

struct LeakyReluOp {
  static float Fwd(float x, float slope) { return x > 0 ? x : slope * x; }
  static float Bwd(float, float x, float slope) {
    return x > 0 ? 1.0f : slope;
  }
};

struct ExpOp {
  static float Fwd(float x, float) { return std::exp(x); }
  static float Bwd(float y, float, float) { return y; }
};

struct LogOp {
  static float Fwd(float x, float eps) { return std::log(x + eps); }
  static float Bwd(float, float x, float eps) { return 1.0f / (x + eps); }
};

}  // namespace

Tensor Sigmoid(const Tensor& a) { return ElementwiseUnary<SigmoidOp>(a); }

Tensor Tanh(const Tensor& a) { return ElementwiseUnary<TanhOp>(a); }

Tensor Relu(const Tensor& a) { return ElementwiseUnary<ReluOp>(a); }

Tensor LeakyRelu(const Tensor& a, float slope) {
  return ElementwiseUnary<LeakyReluOp>(a, slope);
}

Tensor Exp(const Tensor& a) { return ElementwiseUnary<ExpOp>(a); }

Tensor Log(const Tensor& a, float eps) {
  return ElementwiseUnary<LogOp>(a, eps);
}

namespace {

// Softmax backward over the n rows of an (n,m) block: ga += y ⊙ (g - <g,y>)
// per row. SoftmaxRows and SoftmaxColumn share this one compiled body: how
// the compiler rounds the <g,y> reduction (fused multiply-add or not)
// depends on the loop it sits in, and the fused op must match the
// composite bit for bit.
[[gnu::noinline]] void SoftmaxRowsGrad(const float* y, const float* g,
                                       float* ga, int64_t n, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    float dot = 0.0f;
    for (int64_t j = 0; j < m; ++j) dot += g[i * m + j] * y[i * m + j];
    for (int64_t j = 0; j < m; ++j) {
      ga[i * m + j] += y[i * m + j] * (g[i * m + j] - dot);
    }
  }
}

}  // namespace

Tensor SoftmaxRows(const Tensor& a) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.rows(), m = a.cols();
  const float* ad = a.data();
  float* od = out->data.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = ad + i * m;
    float* orow = od + i * m;
    float mx = row[0];
    for (int64_t j = 1; j < m; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    for (int64_t j = 0; j < m; ++j) orow[j] /= sum;
  }
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      ai->EnsureGrad();
      SoftmaxRowsGrad(self.data.data(), self.grad.data(), ai->grad.data(),
                      self.rows, self.cols);
    };
  }
  return Tensor(out);
}

Tensor Transpose(const Tensor& a) {
  auto out = MakeImpl(a.cols(), a.rows(), a.requires_grad());
  const int64_t n = a.rows(), m = a.cols();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) out->data[j * n + i] = a.data()[i * m + j];
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->rows, m = ai->cols;
      ai->EnsureGrad();
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
          ai->grad[i * m + j] += self.grad[j * n + i];
    };
  }
  return Tensor(out);
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.rows(), b.rows());
  const int64_t n = a.rows(), ma = a.cols(), mb = b.cols();
  auto out = MakeImpl(n, ma + mb, AnyRequiresGrad(a, b));
  for (int64_t i = 0; i < n; ++i) {
    std::copy(a.data() + i * ma, a.data() + (i + 1) * ma,
              out->data.data() + i * (ma + mb));
    std::copy(b.data() + i * mb, b.data() + (i + 1) * mb,
              out->data.data() + i * (ma + mb) + ma);
  }
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = self.rows, ma = ai->cols, mb = bi->cols;
      const float* g = self.grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < ma; ++j)
            ai->grad[i * ma + j] += g[i * (ma + mb) + j];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < mb; ++j)
            bi->grad[i * mb + j] += g[i * (ma + mb) + ma + j];
      }
    };
  }
  return Tensor(out);
}

namespace {

// Shared by ConcatRows and StackRows: part p owns the next p->size()
// entries of the gradient. The parts are served in the order of the
// ConcatRows chain StackRows replaces: its outermost node serves the last
// part first, its innermost serves parts 0 then 1. The order only shows when
// one tensor is stacked twice.
void StackRowsBackward(TensorImpl& self) {
  const auto& parts = self.parents;
  const float* g = self.grad.data();
  auto serve = [&](size_t i, const float* slice) {
    TensorImpl* part = parts[i].get();
    if (part->requires_grad) Accumulate(part, slice, part->size());
  };
  int64_t end = self.size();
  for (size_t i = parts.size() - 1; i >= 2; --i) {
    end -= parts[i]->size();
    serve(i, g + end);
  }
  serve(0, g);
  serve(1, g + parts[0]->size());
}

}  // namespace

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.cols(), b.cols());
  const int64_t na = a.rows(), nb = b.rows(), m = a.cols();
  auto out = MakeImpl(na + nb, m, AnyRequiresGrad(a, b));
  std::copy(a.data(), a.data() + na * m, out->data.data());
  std::copy(b.data(), b.data() + nb * m, out->data.data() + na * m);
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = StackRowsBackward;
  }
  return Tensor(out);
}

Tensor SumAll(const Tensor& a) {
  auto out = MakeImpl(1, 1, a.requires_grad());
  float s = 0.0f;
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) s += a.data()[i];
  out->data[0] = s;
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->size();
      ai->EnsureGrad();
      const float g = self.grad[0];
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += g;
    };
  }
  return Tensor(out);
}

Tensor MeanAll(const Tensor& a) {
  return Scale(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

Tensor SumRowsTo1(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, 1, a.requires_grad());
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) s += a.data()[i * m + j];
    out->data[i] = s;
  }
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->rows, m = ai->cols;
      ai->EnsureGrad();
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ai->grad[i * m + j] += self.grad[i];
    };
  }
  return Tensor(out);
}

Tensor MeanRows(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(1, m, a.requires_grad());
  for (int64_t j = 0; j < m; ++j) {
    float s = 0.0f;
    for (int64_t i = 0; i < n; ++i) s += a.data()[i * m + j];
    out->data[j] = s / static_cast<float>(n);
  }
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->rows, m = ai->cols;
      ai->EnsureGrad();
      const float inv = 1.0f / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
          ai->grad[i * m + j] += self.grad[j] * inv;
    };
  }
  return Tensor(out);
}

Tensor Rows(const Tensor& a, const std::vector<int64_t>& idx) {
  ZCHECK(!idx.empty());
  const int64_t m = a.cols();
  auto out = MakeImpl(static_cast<int64_t>(idx.size()), m, a.requires_grad());
  for (size_t r = 0; r < idx.size(); ++r) {
    ZCHECK(idx[r] >= 0 && idx[r] < a.rows())
        << "row index " << idx[r] << " out of range " << a.rows();
    std::copy(a.data() + idx[r] * m, a.data() + (idx[r] + 1) * m,
              out->data.data() + static_cast<int64_t>(r) * m);
  }
  if (out->requires_grad) {
    out->index = idx;
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t m = self.cols;
      const std::vector<int64_t>& indices = self.index;
      ai->EnsureGrad();
      for (size_t r = 0; r < indices.size(); ++r) {
        const float* g = self.grad.data() + static_cast<int64_t>(r) * m;
        float* ga = ai->grad.data() + indices[r] * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += g[j];
      }
    };
  }
  return Tensor(out);
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, 1, AnyRequiresGrad(a, b));
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) s += a.data()[i * m + j] * b.data()[i * m + j];
    out->data[i] = s;
  }
  if (out->requires_grad) {
    SetParents(out.get(), a, b);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = ai->rows, m = ai->cols;
      const float* g = self.grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < m; ++j)
            ai->grad[i * m + j] += g[i] * bi->data[i * m + j];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < m; ++j)
            bi->grad[i * m + j] += g[i] * ai->data[i * m + j];
      }
    };
  }
  return Tensor(out);
}

Tensor RowwiseCosine(const Tensor& a, const Tensor& b, float eps) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, 1, AnyRequiresGrad(a, b));
  std::vector<float> norms(2 * n);
  float* na = norms.data();
  float* nb = na + n;
  for (int64_t i = 0; i < n; ++i) {
    float sa = 0.0f, sb = 0.0f, dot = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      const float av = a.data()[i * m + j];
      const float bv = b.data()[i * m + j];
      sa += av * av;
      sb += bv * bv;
      dot += av * bv;
    }
    na[i] = std::sqrt(sa) + eps;
    nb[i] = std::sqrt(sb) + eps;
    out->data[i] = dot / (na[i] * nb[i]);
  }
  if (out->requires_grad) {
    out->saved = std::move(norms);
    SetParents(out.get(), a, b);
    // saved holds the row norms of a (n floats), then those of b (n floats).
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      TensorImpl* bi = self.parents[1].get();
      const int64_t n = ai->rows, m = ai->cols;
      const float* na = self.saved.data();
      const float* nb = na + n;
      const float* g = self.grad.data();
      const float* y = self.data.data();
      for (int64_t i = 0; i < n; ++i) {
        const float gi = g[i];
        if (gi == 0.0f) continue;
        const float cosv = y[i];
        for (int64_t j = 0; j < m; ++j) {
          const float av = ai->data[i * m + j];
          const float bv = bi->data[i * m + j];
          if (ai->requires_grad) {
            ai->EnsureGrad();
            ai->grad[i * m + j] +=
                gi * (bv / (na[i] * nb[i]) - cosv * av / (na[i] * na[i]));
          }
          if (bi->requires_grad) {
            bi->EnsureGrad();
            bi->grad[i * m + j] +=
                gi * (av / (na[i] * nb[i]) - cosv * bv / (nb[i] * nb[i]));
          }
        }
      }
    };
  }
  return Tensor(out);
}

Tensor NormalizeRows(const Tensor& a, float eps) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, m, a.requires_grad());
  std::vector<float> norms(n);
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      const float v = a.data()[i * m + j];
      s += v * v;
    }
    norms[i] = std::sqrt(s) + eps;
    for (int64_t j = 0; j < m; ++j)
      out->data[i * m + j] = a.data()[i * m + j] / norms[i];
  }
  if (out->requires_grad) {
    out->saved = std::move(norms);
    SetParents(out.get(), a);
    // saved holds the row norms.
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->rows, m = ai->cols;
      const float* norms = self.saved.data();
      ai->EnsureGrad();
      const float* g = self.grad.data();
      const float* y = self.data.data();
      for (int64_t i = 0; i < n; ++i) {
        float dot = 0.0f;
        for (int64_t j = 0; j < m; ++j) dot += g[i * m + j] * y[i * m + j];
        for (int64_t j = 0; j < m; ++j) {
          ai->grad[i * m + j] += (g[i * m + j] - dot * y[i * m + j]) / norms[i];
        }
      }
    };
  }
  return Tensor(out);
}

Tensor TileRows(const Tensor& a, int64_t n) {
  ZCHECK_EQ(a.rows(), 1);
  ZCHECK_GT(n, 0);
  const int64_t m = a.cols();
  auto out = MakeImpl(n, m, a.requires_grad());
  for (int64_t i = 0; i < n; ++i)
    std::copy(a.data(), a.data() + m, out->data.data() + i * m);
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = self.rows, m = self.cols;
      ai->EnsureGrad();
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ai->grad[j] += self.grad[i * m + j];
    };
  }
  return Tensor(out);
}

// --- Fused ops --------------------------------------------------------------

Tensor StackRows(const std::vector<Tensor>& parts) {
  ZCHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  const int64_t m = parts[0].cols();
  int64_t n = 0;
  bool requires_grad = false;
  for (const Tensor& p : parts) {
    ZCHECK_EQ(p.cols(), m);
    n += p.rows();
    requires_grad = requires_grad || p.requires_grad();
  }
  auto out = MakeImpl(n, m, requires_grad);
  float* od = out->data.data();
  for (const Tensor& p : parts) {
    od = std::copy(p.data(), p.data() + p.size(), od);
  }
  if (requires_grad) {
    out->parents.reserve(parts.size());
    for (const Tensor& p : parts) out->parents.push_back(p.impl());
    out->backward_fn = StackRowsBackward;
  }
  return Tensor(out);
}

Tensor SoftmaxColumn(const Tensor& a) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.rows(), m = a.cols();
  const float* ad = a.data();
  float* od = out->data.data();
  for (int64_t j = 0; j < m; ++j) {
    float mx = ad[j];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, ad[i * m + j]);
    float sum = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      od[i * m + j] = std::exp(ad[i * m + j] - mx);
      sum += od[i * m + j];
    }
    for (int64_t i = 0; i < n; ++i) od[i * m + j] /= sum;
  }
  if (out->requires_grad) {
    SetParents(out.get(), a);
    // Runs the composite's arithmetic without its nodes: SoftmaxRows'
    // backward on transposed copies of y and g, into a zeroed buffer that is
    // then added, transposed back, into a's grad.
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = self.rows, m = self.cols;
      std::vector<float> yt(n * m), gt(n * m), dt(n * m, 0.0f);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < m; ++j) {
          yt[j * n + i] = self.data[i * m + j];
          gt[j * n + i] = self.grad[i * m + j];
        }
      }
      SoftmaxRowsGrad(yt.data(), gt.data(), dt.data(), m, n);
      ai->EnsureGrad();
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ai->grad[i * m + j] += dt[j * n + i];
    };
  }
  return Tensor(out);
}

Tensor ColSum(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(1, m, a.requires_grad());
  const float* ad = a.data();
  float* od = out->data.data();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) od[j] += ad[i * m + j];
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->rows, m = ai->cols;
      ai->EnsureGrad();
      const float* g = self.grad.data();
      float* ga = ai->grad.data();
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ga[i * m + j] += g[j];
    };
  }
  return Tensor(out);
}

Tensor GatherRows(const std::vector<Tensor>& tables,
                  std::span<const int64_t> idx) {
  ZCHECK(!idx.empty());
  ZCHECK_EQ(tables.size(), idx.size());
  const int64_t m = tables[0].cols();
  bool requires_grad = false;
  for (const Tensor& t : tables) {
    ZCHECK_EQ(t.cols(), m);
    requires_grad = requires_grad || t.requires_grad();
  }
  auto out = MakeImpl(static_cast<int64_t>(idx.size()), m, requires_grad);
  for (size_t r = 0; r < idx.size(); ++r) {
    const Tensor& t = tables[r];
    ZCHECK(idx[r] >= 0 && idx[r] < t.rows())
        << "row index " << idx[r] << " out of range " << t.rows();
    std::copy(t.data() + idx[r] * m, t.data() + (idx[r] + 1) * m,
              out->data.data() + static_cast<int64_t>(r) * m);
  }
  if (requires_grad) {
    out->index.assign(idx.begin(), idx.end());
    out->parents.reserve(tables.size());
    for (const Tensor& t : tables) out->parents.push_back(t.impl());
    // Parent r is the table row r was gathered from; index[r] is that row.
    // Rows are served last first, as the composite's per-row Rows nodes run.
    out->backward_fn = [](TensorImpl& self) {
      const int64_t m = self.cols;
      for (size_t r = self.index.size(); r-- > 0;) {
        TensorImpl* table = self.parents[r].get();
        if (!table->requires_grad) continue;
        table->EnsureGrad();
        const float* g = self.grad.data() + static_cast<int64_t>(r) * m;
        float* ga = table->grad.data() + self.index[r] * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += g[j];
      }
    };
  }
  return Tensor(out);
}

// --- Losses -----------------------------------------------------------------

Tensor BceWithLogits(const Tensor& logits, const Tensor& labels) {
  ZCHECK(logits.rows() == labels.rows() && logits.cols() == 1 &&
         labels.cols() == 1);
  const int64_t n = logits.rows();
  auto out = MakeImpl(1, 1, logits.requires_grad());
  float loss = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits.data()[i];
    const float y = labels.data()[i];
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  out->data[0] = loss / static_cast<float>(n);
  if (out->requires_grad) {
    out->saved.assign(labels.data(), labels.data() + n);
    SetParents(out.get(), logits);
    // saved holds the labels.
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* li = self.parents[0].get();
      const int64_t n = li->rows;
      const float* labels = self.saved.data();
      li->EnsureGrad();
      const float g = self.grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float x = li->data[i];
        const float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                               : std::exp(x) / (1.0f + std::exp(x));
        li->grad[i] += g * (p - labels[i]);
      }
    };
  }
  return Tensor(out);
}

Tensor FocalBceWithLogits(const Tensor& logits, const Tensor& labels,
                          float gamma) {
  ZCHECK(logits.rows() == labels.rows() && logits.cols() == 1 &&
         labels.cols() == 1);
  const int64_t n = logits.rows();
  static constexpr float kEps = 1e-7f;
  auto out = MakeImpl(1, 1, logits.requires_grad());
  float loss = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits.data()[i];
    const float y = labels.data()[i];
    float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
    p = std::min(std::max(p, kEps), 1.0f - kEps);
    loss += -y * std::pow(1.0f - p, gamma) * std::log(p) -
            (1.0f - y) * std::pow(p, gamma) * std::log(1.0f - p);
  }
  out->data[0] = loss / static_cast<float>(n);
  if (out->requires_grad) {
    out->op_scalar = gamma;
    out->saved.assign(labels.data(), labels.data() + n);
    SetParents(out.get(), logits);
    // saved holds the labels; op_scalar is gamma.
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* li = self.parents[0].get();
      const int64_t n = li->rows;
      const float gamma = self.op_scalar;
      const float* labels = self.saved.data();
      li->EnsureGrad();
      const float g = self.grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float x = li->data[i];
        const float y = labels[i];
        float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
        p = std::min(std::max(p, kEps), 1.0f - kEps);
        // d/dx of the focal loss (derived via dL/dp * p*(1-p)):
        // y-term:  g*p*(1-p)^g*log(p)*gamma - (1-p)^(g+1)
        // (1-y)-term: -gamma*(1-p)*p^g*log(1-p) + p^(g+1)
        const float pos = gamma * p * std::pow(1.0f - p, gamma) * std::log(p) -
                          std::pow(1.0f - p, gamma + 1.0f);
        const float neg =
            -gamma * (1.0f - p) * std::pow(p, gamma) * std::log(1.0f - p) +
            std::pow(p, gamma + 1.0f);
        li->grad[i] += g * (y * pos + (1.0f - y) * neg);
      }
    };
  }
  return Tensor(out);
}

Tensor SquaredNorm(const Tensor& a) {
  auto out = MakeImpl(1, 1, a.requires_grad());
  const int64_t n = a.size();
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += a.data()[i] * a.data()[i];
  out->data[0] = s;
  if (out->requires_grad) {
    SetParents(out.get(), a);
    out->backward_fn = [](TensorImpl& self) {
      TensorImpl* ai = self.parents[0].get();
      const int64_t n = ai->size();
      ai->EnsureGrad();
      const float g = self.grad[0];
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += 2.0f * g * ai->data[i];
    };
  }
  return Tensor(out);
}

}  // namespace tensor
}  // namespace zoomer
