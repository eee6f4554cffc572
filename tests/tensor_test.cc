// Tests for the tensor/autograd substrate. The core of this suite is a
// numeric gradient checker applied to every differentiable op, plus
// optimizer convergence tests and a small end-to-end learning test.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace zoomer {
namespace tensor {
namespace {

// Numeric gradient check: builds loss = sum(w ⊙ f(x)) for fixed pseudo-random
// w (to make the loss sensitive to every output entry), compares autograd
// gradients of x against central differences.
void GradCheck(const std::function<Tensor(const Tensor&)>& f, Tensor x,
               float h = 5e-3f, float tol = 2e-2f) {
  Rng rng(99);
  Tensor y0 = f(x);
  Tensor w = Tensor::Randn(y0.rows(), y0.cols(), &rng, 1.0f);
  auto loss_of = [&](const Tensor& in) {
    Tensor y = f(in);
    return SumAll(Mul(y, w));
  };
  Tensor loss = loss_of(x);
  x.ZeroGrad();
  // Re-run forward graph with grad to populate x.grad.
  Tensor loss2 = loss_of(x);
  loss2.Backward();
  for (int64_t i = 0; i < x.rows(); ++i) {
    for (int64_t j = 0; j < x.cols(); ++j) {
      const float orig = x.at(i, j);
      x.at(i, j) = orig + h;
      const float fp = loss_of(x).item();
      x.at(i, j) = orig - h;
      const float fm = loss_of(x).item();
      x.at(i, j) = orig;
      const float numeric = (fp - fm) / (2.0f * h);
      const float analytic = x.grad_at(i, j);
      const float denom = std::max({std::abs(numeric), std::abs(analytic), 1.0f});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "entry (" << i << "," << j << ") analytic=" << analytic
          << " numeric=" << numeric;
    }
  }
}

Tensor RandInput(int64_t r, int64_t c, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(r, c, &rng, scale, /*requires_grad=*/true);
}

TEST(TensorTest, FactoryShapes) {
  Tensor z = Tensor::Zeros(3, 4);
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 4);
  EXPECT_EQ(z.size(), 12);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(z.at(i, j), 0.0f);
  Tensor f = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
  Tensor s = Tensor::Scalar(2.0f);
  EXPECT_EQ(s.item(), 2.0f);
}

TEST(TensorTest, FromVectorRoundTrip) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
}

TEST(TensorTest, DetachSharesNoHistory) {
  Tensor x = RandInput(2, 2, 1);
  Tensor d = x.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at(0, 0), x.at(0, 0));
  d.at(0, 0) += 1.0f;  // fresh storage
  EXPECT_NE(d.at(0, 0), x.at(0, 0));
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(TensorTest, AddBroadcastRow) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({10, 20}, 1, 2);
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Tensor x = RandInput(5, 7, 3);
  Tensor y = SoftmaxRows(x);
  for (int64_t i = 0; i < 5; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      s += y.at(i, j);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor x = Tensor::FromVector({1000.0f, 1001.0f, 999.0f}, 1, 3);
  Tensor y = SoftmaxRows(x);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(TensorTest, NormalizeRowsUnitNorm) {
  Tensor x = RandInput(4, 6, 5);
  Tensor y = NormalizeRows(x);
  for (int64_t i = 0; i < 4; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 6; ++j) s += y.at(i, j) * y.at(i, j);
    EXPECT_NEAR(s, 1.0f, 1e-4f);
  }
}

TEST(TensorTest, RowsGather) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor y = Rows(x, {2, 0, 2});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(2, 1), 6.0f);
}

TEST(TensorTest, RowsGatherGradientScatterAdds) {
  Tensor x = Tensor::Zeros(3, 2, /*requires_grad=*/true);
  Tensor y = Rows(x, {1, 1});
  Tensor loss = SumAll(y);
  loss.Backward();
  // Row 1 gathered twice -> gradient 2 in both columns.
  EXPECT_FLOAT_EQ(x.grad_at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.grad_at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(x.grad_at(0, 0), 0.0f);
}

TEST(TensorTest, RowwiseCosineOfIdenticalRowsIsOne) {
  Tensor x = RandInput(3, 5, 7);
  Tensor c = RowwiseCosine(x, x);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(c.at(i, 0), 1.0f, 1e-4f);
}

TEST(TensorTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(x*x) + sum(x) uses x twice; d/dx = 2x + 1.
  Tensor x = Tensor::FromVector({2.0f, -3.0f}, 1, 2, /*requires_grad=*/true);
  Tensor loss = Add(SumAll(Mul(x, x)), SumAll(x));
  loss.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 5.0f, 1e-5f);
  EXPECT_NEAR(x.grad_at(0, 1), -5.0f, 1e-5f);
}

TEST(TensorTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor loss = Mul(x, x);
  loss.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 6.0f, 1e-5f);
  Tensor loss2 = Mul(x, x);
  loss2.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 12.0f, 1e-5f);  // accumulated
}

// --- Parameterized gradient checks over all differentiable ops -------------

struct OpCase {
  std::string name;
  std::function<Tensor(const Tensor&)> fn;
  int64_t rows = 3;
  int64_t cols = 4;
  float scale = 1.0f;
};

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, MatchesNumericGradient) {
  const auto& c = GetParam();
  GradCheck(c.fn, RandInput(c.rows, c.cols, 17, c.scale));
}

Tensor FixedMat(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(r, c, &rng, 1.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest,
    ::testing::Values(
        OpCase{"MatMulLhs", [](const Tensor& x) { return MatMul(x, FixedMat(4, 5, 2)); }},
        OpCase{"MatMulRhs", [](const Tensor& x) { return MatMul(FixedMat(5, 3, 3), x); }},
        OpCase{"AddSame", [](const Tensor& x) { return Add(x, FixedMat(3, 4, 4)); }},
        OpCase{"AddRowBroadcastGradToRow",
               [](const Tensor& x) {
                 return Add(FixedMat(5, 4, 5), MatMul(Tensor::Full(1, 3, 1.0f), x));
               },
               3, 4},
        OpCase{"Sub", [](const Tensor& x) { return Sub(x, FixedMat(3, 4, 6)); }},
        OpCase{"MulSame", [](const Tensor& x) { return Mul(x, FixedMat(3, 4, 7)); }},
        OpCase{"MulColBroadcast",
               [](const Tensor& x) { return Mul(FixedMat(3, 4, 8), SumRowsTo1(x)); }},
        OpCase{"Scale", [](const Tensor& x) { return Scale(x, -2.5f); }},
        OpCase{"AddScalar", [](const Tensor& x) { return AddScalar(x, 1.5f); }},
        OpCase{"Sigmoid", [](const Tensor& x) { return Sigmoid(x); }},
        OpCase{"Tanh", [](const Tensor& x) { return Tanh(x); }},
        OpCase{"LeakyRelu", [](const Tensor& x) { return LeakyRelu(x, 0.2f); }},
        OpCase{"Exp", [](const Tensor& x) { return Exp(x); }},
        OpCase{"LogShifted", [](const Tensor& x) { return Log(Exp(x)); }},
        OpCase{"SoftmaxRows", [](const Tensor& x) { return SoftmaxRows(x); }},
        OpCase{"Transpose", [](const Tensor& x) { return Transpose(x); }},
        OpCase{"ConcatColsLhs",
               [](const Tensor& x) { return ConcatCols(x, FixedMat(3, 2, 9)); }},
        OpCase{"ConcatRowsRhs",
               [](const Tensor& x) { return ConcatRows(FixedMat(2, 4, 10), x); }},
        OpCase{"SumAll", [](const Tensor& x) { return SumAll(x); }},
        OpCase{"MeanAll", [](const Tensor& x) { return MeanAll(x); }},
        OpCase{"SumRowsTo1", [](const Tensor& x) { return SumRowsTo1(x); }},
        OpCase{"MeanRows", [](const Tensor& x) { return MeanRows(x); }},
        OpCase{"RowsGather", [](const Tensor& x) { return Rows(x, {0, 2, 2, 1}); }},
        OpCase{"RowwiseDot",
               [](const Tensor& x) { return RowwiseDot(x, FixedMat(3, 4, 11)); }},
        OpCase{"RowwiseCosine",
               [](const Tensor& x) { return RowwiseCosine(x, FixedMat(3, 4, 12)); }},
        OpCase{"NormalizeRows", [](const Tensor& x) { return NormalizeRows(x); }},
        OpCase{"TileRows", [](const Tensor& x) { return TileRows(x, 5); }, 1, 4},
        OpCase{"StackRowsMiddle",
               [](const Tensor& x) {
                 return StackRows({FixedMat(2, 4, 21), x, FixedMat(1, 4, 22)});
               }},
        OpCase{"StackRowsRepeated",
               [](const Tensor& x) { return StackRows({x, x, Tanh(x)}); }},
        OpCase{"SoftmaxColumn", [](const Tensor& x) { return SoftmaxColumn(x); }, 5, 1},
        OpCase{"SoftmaxColumnWide",
               [](const Tensor& x) { return SoftmaxColumn(x); }, 4, 3},
        OpCase{"ColSum", [](const Tensor& x) { return ColSum(x); }},
        OpCase{"GatherRows",
               [](const Tensor& x) {
                 const std::vector<int64_t> idx = {2, 1, 2, 0};
                 return GatherRows({x, FixedMat(3, 4, 23), x, x}, idx);
               }},
        OpCase{"SquaredNorm", [](const Tensor& x) { return SquaredNorm(x); }},
        OpCase{"BceWithLogits",
               [](const Tensor& x) {
                 Tensor labels = Tensor::FromVector({1, 0, 1}, 3, 1);
                 return BceWithLogits(x, labels);
               },
               3, 1},
        OpCase{"FocalBceWithLogits",
               [](const Tensor& x) {
                 Tensor labels = Tensor::FromVector({1, 0, 1}, 3, 1);
                 return FocalBceWithLogits(x, labels, 2.0f);
               },
               3, 1}),
    [](const ::testing::TestParamInfo<OpCase>& info) { return info.param.name; });

// --- Fused ops are bit-identical to the composites they replace ------------
//
// Each fused op is run beside its composite in this binary, on the same
// inputs, and compared as float bits: the forward values and the gradients
// of the inputs. Each comparison runs twice: with the inputs' grads starting
// at zero, so a low-bit difference in the op's own contribution shows, and
// starting from the same nonzero values, so a different accumulation order
// shows.

using ListOp = std::function<Tensor(const std::vector<Tensor>&)>;

struct BitsRun {
  std::vector<uint32_t> out;
  std::vector<std::vector<uint32_t>> grads;  // one per input
};

std::vector<uint32_t> Bits(const float* v, int64_t n) {
  std::vector<uint32_t> bits(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) bits[i] = std::bit_cast<uint32_t>(v[i]);
  return bits;
}

// Runs loss = sum(w ⊙ f(inputs)) on fresh leaf copies of `inputs`, whose
// grads start at seed * (a fixed ramp), and returns f's output and the
// inputs' gradients as bits.
BitsRun RunBits(const ListOp& f, const std::vector<Tensor>& inputs,
                float seed) {
  std::vector<Tensor> leaves;
  for (size_t k = 0; k < inputs.size(); ++k) {
    const Tensor& in = inputs[k];
    std::vector<float> values(in.data(), in.data() + in.size());
    leaves.push_back(Tensor::FromVector(values, in.rows(), in.cols(),
                                        /*requires_grad=*/true));
    float* g = leaves.back().grad_data();
    for (int64_t i = 0; i < in.size(); ++i) {
      g[i] = seed * static_cast<float>(i + 1) / static_cast<float>(k + 3);
    }
  }
  Tensor y = f(leaves);
  Rng rng(31);
  Tensor w = Tensor::Randn(y.rows(), y.cols(), &rng, 1.0f);
  SumAll(Mul(y, w)).Backward();
  BitsRun run;
  run.out = Bits(y.data(), y.size());
  for (Tensor& leaf : leaves) {
    run.grads.push_back(Bits(leaf.grad_data(), leaf.size()));
  }
  return run;
}

void ExpectSameBits(const ListOp& fused, const ListOp& composite,
                    const std::vector<Tensor>& inputs) {
  for (const float seed : {0.0f, 0.37f}) {
    const BitsRun a = RunBits(fused, inputs, seed);
    const BitsRun b = RunBits(composite, inputs, seed);
    EXPECT_EQ(a.out, b.out) << "forward values differ";
    ASSERT_EQ(a.grads.size(), b.grads.size());
    for (size_t k = 0; k < a.grads.size(); ++k) {
      EXPECT_EQ(a.grads[k], b.grads[k])
          << "gradient of input " << k << " differs (grad seed " << seed
          << ")";
    }
  }
}

Tensor ConcatRowsChain(const std::vector<Tensor>& parts) {
  Tensor out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out = ConcatRows(out, parts[i]);
  return out;
}

TEST(FusedOpBitsTest, StackRowsMatchesConcatRowsChain) {
  const std::vector<Tensor> in = {FixedMat(2, 5, 41), FixedMat(1, 5, 42),
                                  FixedMat(3, 5, 43), FixedMat(1, 5, 44)};
  ExpectSameBits(StackRows, ConcatRowsChain, in);
  // Parts that feed the stack through ops, with one tensor stacked three
  // times: the order its slices arrive in must match the chain's.
  auto repeated = [](const ListOp& stack) -> ListOp {
    return [stack](const std::vector<Tensor>& x) {
      Tensor t = Tanh(x[0]);
      return stack({t, Exp(x[1]), t, x[0], t});
    };
  };
  ExpectSameBits(repeated(StackRows), repeated(ConcatRowsChain),
                 {FixedMat(2, 5, 45), FixedMat(2, 5, 46)});
}

TEST(FusedOpBitsTest, SoftmaxColumnMatchesTransposedSoftmaxRows) {
  for (const auto& [rows, cols] : std::vector<std::pair<int64_t, int64_t>>{
           {7, 1}, {16, 1}, {33, 1}, {5, 3}, {12, 2}, {1, 4}}) {
    ExpectSameBits(
        [](const std::vector<Tensor>& x) { return SoftmaxColumn(x[0]); },
        [](const std::vector<Tensor>& x) {
          return Transpose(SoftmaxRows(Transpose(x[0])));
        },
        {FixedMat(rows, cols, 50 + rows)});
  }
}

TEST(FusedOpBitsTest, ColSumMatchesMatMulByOnes) {
  ExpectSameBits(
      [](const std::vector<Tensor>& x) { return ColSum(x[0]); },
      [](const std::vector<Tensor>& x) {
        return MatMul(Tensor::Full(1, x[0].rows(), 1.0f), x[0]);
      },
      {FixedMat(6, 4, 60)});
}

TEST(FusedOpBitsTest, GatherRowsMatchesStackedRows) {
  // Tables 0 and 1 are each read twice, table 0 twice at the same row.
  const std::vector<int64_t> idx = {3, 1, 3, 0, 2};
  const std::vector<size_t> table_of = {0, 1, 0, 2, 1};
  ExpectSameBits(
      [&](const std::vector<Tensor>& x) {
        std::vector<Tensor> tables;
        for (size_t t : table_of) tables.push_back(x[t]);
        return GatherRows(tables, idx);
      },
      [&](const std::vector<Tensor>& x) {
        std::vector<Tensor> rows;
        for (size_t r = 0; r < idx.size(); ++r) {
          rows.push_back(Rows(x[table_of[r]], {idx[r]}));
        }
        return ConcatRowsChain(rows);
      },
      {FixedMat(4, 3, 70), FixedMat(3, 3, 71), FixedMat(5, 3, 72)});
}

// --- Tape bookkeeping -------------------------------------------------------

TEST(TapeTest, GradsAreLazyForOpOutputsAndEagerForLeaves) {
  Tensor w = RandInput(2, 3, 80);
  Tensor untouched = Tensor::Zeros(2, 3, /*requires_grad=*/true);
  Tensor h = Tanh(w);
  Tensor off_path = Exp(w);  // never reached from the loss
  Tensor loss = SumAll(h);
  EXPECT_TRUE(h.grad_vector().empty());
  loss.Backward();
  EXPECT_EQ(h.grad_vector().size(), 6u);
  EXPECT_TRUE(off_path.grad_vector().empty());
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(untouched.grad_at(i, j), 0.0f);
      EXPECT_NE(w.grad_at(i, j), 0.0f);
    }
  }
}

TEST(TapeTest, LongChainBackwardAndTeardownDoNotRecurse) {
  // One stack frame per node would overflow an 8 MB stack well before this.
  Tensor x = Tensor::Scalar(0.5f, /*requires_grad=*/true);
  {
    Tensor y = x;
    for (int i = 0; i < 300000; ++i) y = AddScalar(y, 1.0f);
    y.Backward();
  }  // the whole chain is released here
  EXPECT_EQ(x.grad_at(0, 0), 1.0f);
}

// --- Loss semantics ---------------------------------------------------------

TEST(LossTest, BceMatchesManualComputation) {
  Tensor logits = Tensor::FromVector({0.0f}, 1, 1);
  Tensor labels = Tensor::FromVector({1.0f}, 1, 1);
  // -log(sigmoid(0)) = log 2
  EXPECT_NEAR(BceWithLogits(logits, labels).item(), std::log(2.0f), 1e-5f);
}

TEST(LossTest, FocalGammaZeroEqualsBce) {
  Rng rng(21);
  Tensor logits = Tensor::Randn(8, 1, &rng, 2.0f);
  Tensor labels = Tensor::FromVector({1, 0, 1, 1, 0, 0, 1, 0}, 8, 1);
  EXPECT_NEAR(FocalBceWithLogits(logits, labels, 0.0f).item(),
              BceWithLogits(logits, labels).item(), 1e-4f);
}

TEST(LossTest, FocalDownweightsEasyExamples) {
  // Confident correct prediction: focal loss << BCE loss.
  Tensor logits = Tensor::FromVector({4.0f}, 1, 1);
  Tensor labels = Tensor::FromVector({1.0f}, 1, 1);
  const float bce = BceWithLogits(logits, labels).item();
  const float focal = FocalBceWithLogits(logits, labels, 2.0f).item();
  EXPECT_LT(focal, bce * 0.01f);
}

// --- Optimizers --------------------------------------------------------------

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  Rng rng(31);
  Tensor x = Tensor::Randn(4, 4, &rng, 2.0f, /*requires_grad=*/true);
  std::unique_ptr<Optimizer> opt;
  const std::string kind = GetParam();
  if (kind == "sgd") opt = std::make_unique<Sgd>(std::vector<Tensor>{x}, 0.05f);
  else if (kind == "sgd_momentum")
    opt = std::make_unique<Sgd>(std::vector<Tensor>{x}, 0.02f, 0.9f);
  else if (kind == "adam")
    opt = std::make_unique<Adam>(std::vector<Tensor>{x}, 0.1f);
  else
    opt = std::make_unique<Adagrad>(std::vector<Tensor>{x}, 0.5f);
  float last = 1e9f;
  for (int step = 0; step < 300; ++step) {
    opt->ZeroGrad();
    Tensor loss = SquaredNorm(x);
    loss.Backward();
    opt->Step();
    last = SquaredNorm(x).item();
  }
  EXPECT_LT(last, 1e-2f) << "optimizer " << kind << " failed to converge";
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values("sgd", "sgd_momentum", "adam",
                                           "adagrad"));

TEST(OptimizerTest, WeightDecayShrinksParams) {
  Tensor x = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  Sgd opt({x}, 0.1f, 0.0f, /*weight_decay=*/0.5f);
  opt.ZeroGrad();
  opt.Step();  // gradient zero, decay only: w -= lr*wd*w
  EXPECT_NEAR(x.at(0, 0), 1.0f - 0.1f * 0.5f, 1e-6f);
}

// --- NN building blocks ------------------------------------------------------

TEST(NnTest, LinearShapes) {
  Rng rng(41);
  Linear lin(6, 3, &rng);
  Tensor x = Tensor::Randn(5, 6, &rng, 1.0f);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(lin.Parameters().size(), 2u);
}

TEST(NnTest, MlpLearnsXor) {
  Rng rng(43);
  Mlp mlp({2, 8, 1}, &rng, Activation::kTanh);
  Tensor x = Tensor::FromVector({0, 0, 0, 1, 1, 0, 1, 1}, 4, 2);
  Tensor y = Tensor::FromVector({0, 1, 1, 0}, 4, 1);
  Adam opt(mlp.Parameters(), 0.05f);
  float loss_val = 1e9f;
  for (int step = 0; step < 500; ++step) {
    opt.ZeroGrad();
    Tensor loss = BceWithLogits(mlp.Forward(x), y);
    loss.Backward();
    opt.Step();
    loss_val = loss.item();
  }
  EXPECT_LT(loss_val, 0.1f);
}

TEST(NnTest, EmbeddingLookupAndTrain) {
  Rng rng(47);
  Embedding emb(10, 4, &rng);
  Tensor e = emb.Lookup({3, 3, 7});
  EXPECT_EQ(e.rows(), 3);
  EXPECT_EQ(e.cols(), 4);
  // Push embedding 3 towards zero.
  Sgd opt(emb.Parameters(), 0.5f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    Tensor loss = SquaredNorm(emb.Lookup({3}));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(SquaredNorm(emb.Lookup({3})).item(), 1e-3f);
  EXPECT_GT(SquaredNorm(emb.Lookup({7})).item(), 1e-3f);  // untouched row
}

TEST(AllocationTrackerTest, CountsAllocatedFloats) {
  AllocationTracker::Reset();
  Tensor::Zeros(10, 10);
  Tensor::Zeros(5, 2);
  EXPECT_EQ(AllocationTracker::allocated_floats(), 110);
  EXPECT_EQ(AllocationTracker::allocated_bytes(), 440);
}

}  // namespace
}  // namespace tensor
}  // namespace zoomer
