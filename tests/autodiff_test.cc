#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autodiff/adam.h"
#include "autodiff/ops.h"
#include "autodiff/tensor.h"
#include "common/random.h"

namespace sam::ad {
namespace {

Matrix Make(size_t r, size_t c, std::initializer_list<double> vals) {
  Matrix m(r, c);
  size_t i = 0;
  for (double v : vals) m.data()[i++] = v;
  return m;
}

/// `rows` x `cols` Gumbel uniforms drawn from a seeded Rng.
Matrix Uniforms(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix u(rows, cols);
  for (size_t i = 0; i < u.size(); ++i) u.data()[i] = rng.Uniform();
  return u;
}

/// Central-difference gradient check for a scalar function of one parameter.
void CheckGradients(Tensor param,
                    const std::function<Tensor(const Tensor&)>& fn,
                    double tol = 1e-5) {
  Tensor loss = fn(param);
  param.ZeroGrad();
  loss.Backward();
  const Matrix analytic = param.grad();
  const double eps = 1e-6;
  for (size_t i = 0; i < param.value().size(); ++i) {
    const double orig = param.value().data()[i];
    param.mutable_value().data()[i] = orig + eps;
    const double up = fn(param).value()(0, 0);
    param.mutable_value().data()[i] = orig - eps;
    const double down = fn(param).value()(0, 0);
    param.mutable_value().data()[i] = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "gradient mismatch at flat index " << i;
  }
}

TEST(TensorTest, ConstantHasNoGrad) {
  Tensor t = Tensor::Constant(Make(1, 2, {1, 2}));
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, BackwardThroughAddAndSum) {
  Tensor a = Tensor::Param(Make(2, 2, {1, 2, 3, 4}));
  Tensor b = Tensor::Constant(Make(2, 2, {10, 20, 30, 40}));
  Tensor loss = SumAll(Add(a, b));
  loss.Backward();
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a.grad().data()[i], 1.0);
}

TEST(TensorTest, GradAccumulatesWhenReused) {
  Tensor a = Tensor::Param(Make(1, 1, {3}));
  // loss = a*a => dloss/da = 2a = 6.
  Tensor loss = SumAll(Mul(a, a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 6.0);
}

TEST(OpsGradTest, Matmul) {
  Tensor w = Tensor::Param(Make(3, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  Tensor x = Tensor::Constant(Make(2, 3, {1, 2, 3, -1, 0, 2}));
  CheckGradients(w, [&](const Tensor& p) { return SumAll(Mul(Matmul(x, p), Matmul(x, p))); });
}

TEST(OpsGradTest, Relu) {
  Tensor a = Tensor::Param(Make(1, 4, {-1.0, 0.5, 2.0, -0.3}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Relu(p), Relu(p))); });
}

TEST(OpsGradTest, Softmax) {
  Tensor a = Tensor::Param(Make(2, 3, {0.5, -1.0, 2.0, 0.0, 0.1, -0.2}));
  Tensor weights = Tensor::Constant(Make(2, 3, {1, 2, 3, -1, 0, 1}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Softmax(p), weights)); });
}

TEST(OpsGradTest, LogEps) {
  Tensor a = Tensor::Param(Make(1, 3, {0.5, 1.5, 3.0}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(LogEps(p)); });
}

TEST(OpsGradTest, RowSumAndScale) {
  Tensor a = Tensor::Param(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  CheckGradients(a, [&](const Tensor& p) {
    return SumAll(Mul(Scale(RowSum(p), 0.5), Scale(RowSum(p), 0.5)));
  });
}

TEST(OpsGradTest, SliceColumns) {
  Tensor a = Tensor::Param(Make(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}));
  CheckGradients(a, [&](const Tensor& p) {
    Tensor s = SliceColumns(p, 1, 3);
    return SumAll(Mul(s, s));
  });
}

TEST(OpsGradTest, SliceRows) {
  Tensor a = Tensor::Param(Make(3, 2, {1, 2, 3, 4, 5, 6}));
  CheckGradients(a, [&](const Tensor& p) {
    Tensor s = SliceRows(p, 1, 3);
    return SumAll(Mul(s, s));
  });
}

TEST(OpsGradTest, AddRowBroadcast) {
  Tensor bias = Tensor::Param(Make(1, 3, {0.1, -0.2, 0.3}));
  Tensor x = Tensor::Constant(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  CheckGradients(bias, [&](const Tensor& p) {
    Tensor y = AddRowBroadcast(x, p);
    return SumAll(Mul(y, y));
  });
}

TEST(OpsGradTest, Sub) {
  Tensor a = Tensor::Param(Make(1, 3, {1, 2, 3}));
  Tensor b = Tensor::Constant(Make(1, 3, {0.5, 0.5, 0.5}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Sub(p, b), Sub(p, b))); });
}

TEST(OpsGradTest, Reciprocal) {
  Tensor a = Tensor::Param(Make(1, 3, {1.0, 2.0, 4.0}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Reciprocal(p)); });
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::Constant(Make(2, 4, {1, 2, 3, 4, -10, 0, 10, 20}));
  Tensor s = Softmax(a);
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 4; ++c) sum += s.value()(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpsTest, GumbelSoftmaxForwardIsOneHotWithinMask) {
  // Mask out column 0 with a large negative logit.
  Matrix logits(8, 3);
  for (size_t r = 0; r < 8; ++r) {
    logits(r, 0) = -1e30;
    logits(r, 1) = 0.0;
    logits(r, 2) = 1.0;
  }
  Tensor t = Tensor::Constant(std::move(logits));
  Tensor sample = GumbelSoftmaxST(t, 1.0, Uniforms(8, 3, 11));
  for (size_t r = 0; r < 8; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(sample.value()(r, c) == 0.0 || sample.value()(r, c) == 1.0);
      sum += sample.value()(r, c);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(sample.value()(r, 0), 0.0) << "masked category sampled";
  }
}

TEST(OpsTest, GumbelSoftmaxBackwardRoutesGradient) {
  Tensor logits = Tensor::Param(Make(1, 3, {0.2, 0.5, 0.1}));
  Tensor weights = Tensor::Constant(Make(1, 3, {1.0, 2.0, 3.0}));
  Tensor loss = SumAll(Mul(GumbelSoftmaxST(logits, 0.7, Uniforms(1, 3, 13)), weights));
  loss.Backward();
  // Gradient must be nonzero somewhere (soft path) even though the forward
  // value is a hard one-hot.
  double norm = 0;
  for (size_t i = 0; i < 3; ++i) norm += std::fabs(logits.grad().data()[i]);
  EXPECT_GT(norm, 0.0);
}

TEST(NoGradTest, GuardSuppressesGraph) {
  Tensor a = Tensor::Param(Make(1, 2, {1, 2}));
  NoGradGuard guard;
  Tensor out = SumAll(Mul(a, a));
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.node()->parents.empty());
}

TEST(AdamTest, MinimisesQuadratic) {
  // minimise (w - 3)^2 elementwise.
  Tensor w = Tensor::Param(Make(1, 2, {0.0, 10.0}));
  Tensor target = Tensor::Constant(Make(1, 2, {3.0, 3.0}));
  AdamOptimizer::Options opts;
  opts.lr = 0.1;
  AdamOptimizer adam({w}, opts);
  for (int step = 0; step < 500; ++step) {
    adam.ZeroGrad();
    Tensor diff = Sub(w, target);
    Tensor loss = SumAll(Mul(diff, diff));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.value()(0, 0), 3.0, 1e-2);
  EXPECT_NEAR(w.value()(0, 1), 3.0, 1e-2);
}

TEST(OpsTest, GumbelSoftmaxPicksArgmaxOfPerturbedLogits) {
  // The forward one-hot marks argmax(logit + GumbelOfUniform(u)) per row.
  const Matrix logits = Make(2, 3, {0.3, -0.2, 0.1, 1.0, 0.0, -1.0});
  const Matrix u = Uniforms(2, 3, 17);
  Tensor sample = GumbelSoftmaxST(Tensor::Constant(logits), 0.5, u);
  for (size_t r = 0; r < 2; ++r) {
    size_t best = 0;
    for (size_t c = 1; c < 3; ++c) {
      if (logits(r, c) + GumbelOfUniform(u(r, c)) >
          logits(r, best) + GumbelOfUniform(u(r, best))) {
        best = c;
      }
    }
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(sample.value()(r, c), c == best ? 1.0 : 0.0);
    }
  }
}

TEST(AdamTest, StepReturnsGradNormBeforeClipping) {
  Tensor w = Tensor::Param(Make(1, 2, {0.0, 0.0}));
  AdamOptimizer::Options opts;
  opts.clip_norm = 1.0;
  AdamOptimizer adam({w}, opts);
  adam.ZeroGrad();
  // d/dw sum(3 w0 + 4 w1) = (3, 4): norm 5, clipped to 1 for the update.
  SumAll(Mul(w, Tensor::Constant(Make(1, 2, {3.0, 4.0})))).Backward();
  EXPECT_EQ(adam.Step(), 5.0);
  EXPECT_NEAR(w.grad()(0, 0), 0.6, 1e-15);
}

TEST(AdamTest, ClipNormBoundsUpdates) {
  Tensor w = Tensor::Param(Make(1, 1, {0.0}));
  AdamOptimizer::Options opts;
  opts.lr = 1.0;
  opts.clip_norm = 1e-3;
  AdamOptimizer adam({w}, opts);
  adam.ZeroGrad();
  Tensor loss = SumAll(Mul(Scale(w, 1e6), Scale(w, 1e6)));
  loss.Backward();
  adam.Step();
  EXPECT_TRUE(std::isfinite(w.value()(0, 0)));
}

}  // namespace
}  // namespace sam::ad
