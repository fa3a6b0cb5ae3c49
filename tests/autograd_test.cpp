#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "autograd/optim.hpp"
#include "autograd/tape.hpp"
#include "tensor/simd.hpp"

namespace pddl::ag {
namespace {

// Numerical gradient of a scalar-valued function of one parameter matrix.
Matrix numerical_grad(Matrix& param,
                      const std::function<double()>& eval_loss,
                      double eps = 1e-6) {
  Matrix g(param.rows(), param.cols());
  for (std::size_t r = 0; r < param.rows(); ++r) {
    for (std::size_t c = 0; c < param.cols(); ++c) {
      const double orig = param(r, c);
      param(r, c) = orig + eps;
      const double hi = eval_loss();
      param(r, c) = orig - eps;
      const double lo = eval_loss();
      param(r, c) = orig;
      g(r, c) = (hi - lo) / (2.0 * eps);
    }
  }
  return g;
}

TEST(Tape, ForwardValuesOfBasicOps) {
  Ctx ctx;
  Var a = ctx.constant(Matrix{{1, 2}, {3, 4}});
  Var b = ctx.constant(Matrix{{5, 6}, {7, 8}});
  EXPECT_DOUBLE_EQ(add(a, b).value()(1, 1), 12.0);
  EXPECT_DOUBLE_EQ(sub(a, b).value()(0, 0), -4.0);
  EXPECT_DOUBLE_EQ(mul(a, b).value()(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(matmul(a, b).value()(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(scale(a, 2.0).value()(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(mean_all(a).value()(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(sum_all(a).value()(0, 0), 10.0);
}

TEST(Tape, BackwardRequiresScalarRoot) {
  Ctx ctx;
  Matrix p{{1, 2}};
  Var a = ctx.leaf(p);
  EXPECT_THROW(ctx.backward(a), Error);
}

TEST(Tape, LeafReusedAcrossCalls) {
  Ctx ctx;
  Matrix p{{1.0}};
  Var a = ctx.leaf(p);
  Var b = ctx.leaf(p);
  EXPECT_EQ(a.id, b.id);
}

TEST(Tape, GradientOfSumIsOnes) {
  Ctx ctx;
  Matrix p{{1, 2}, {3, 4}};
  Var a = ctx.leaf(p);
  ctx.backward(sum_all(a));
  Matrix g = ctx.grad(p);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(g(r, c), 1.0);
  }
}

TEST(Tape, GradientAccumulatesWhenVarUsedTwice) {
  Ctx ctx;
  Matrix p{{3.0}};
  Var a = ctx.leaf(p);
  // loss = a·a (via mul) → d/da = 2a = 6.
  ctx.backward(sum_all(mul(a, a)));
  EXPECT_DOUBLE_EQ(ctx.grad(p)(0, 0), 6.0);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Random matrix with some exact zeros planted, plus one all-zero column:
// the zero entries of A are the ones matmul skips.
Matrix sparse_randn(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::randn(rows, cols, rng);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.25) m(r, c) = 0.0;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) m(r, cols / 2) = 0.0;
  return m;
}

TEST(Tape, MatmulBackwardMatchesTransposeFormulasBitForBit) {
  // Y1 = A·B1 and Y2 = A·B2 share the leaf A; Y3 = A2·B1 shares B1.  The
  // loss Σ (Y ∘ C) hands each matmul the upstream gradient C exactly, so the
  // oracle is the formulas the backward used to run, accumulated onto zeros
  // in the reverse sweep's order (Y3, Y2, Y1):
  //   dA  = 0 + C2·B2ᵀ + C1·B1ᵀ
  //   dB1 = 0 + A2ᵀ·C3 + Aᵀ·C1,   dB2 = 0 + Aᵀ·C2,   dA2 = 0 + C3·B1ᵀ.
  // m = 1 is the GHN's shape (one node row); the larger m take the
  // scratch-row path, and 70 × 300 reaches matmul's blocked kernel.
  Rng rng(41);
  const simd::DispatchLevel levels[] = {simd::DispatchLevel::kScalar,
                                        simd::DispatchLevel::kAvx2};
  const std::size_t shapes[][3] = {{1, 7, 5}, {1, 33, 32}, {4, 9, 6},
                                   {70, 65, 300}};
  for (const auto& shape : shapes) {
    const std::size_t m = shape[0], k = shape[1], n = shape[2];
    const Matrix a = sparse_randn(m, k, rng), a2 = sparse_randn(m, k, rng);
    const Matrix b1 = sparse_randn(k, n, rng), b2 = sparse_randn(k, n, rng);
    const Matrix c1 = sparse_randn(m, n, rng), c2 = sparse_randn(m, n, rng),
                 c3 = sparse_randn(m, n, rng);

    Matrix da(m, k), db1(k, n), db2(k, n), da2(m, k);
    da += pddl::matmul(c2, b2.transposed());
    da += pddl::matmul(c1, b1.transposed());
    db1 += pddl::matmul(a2.transposed(), c3);
    db1 += pddl::matmul(a.transposed(), c1);
    db2 += pddl::matmul(a.transposed(), c2);
    da2 += pddl::matmul(c3, b1.transposed());

    for (const simd::DispatchLevel level : levels) {
      const simd::DispatchLevel prev = simd::set_dispatch_level(level);
      Matrix pa = a, pa2 = a2, pb1 = b1, pb2 = b2;
      Ctx ctx;
      Var va = ctx.leaf(pa), va2 = ctx.leaf(pa2);
      Var vb1 = ctx.leaf(pb1), vb2 = ctx.leaf(pb2);
      Var l1 = sum_all(mul(matmul(va, vb1), ctx.constant(c1)));
      Var l2 = sum_all(mul(matmul(va, vb2), ctx.constant(c2)));
      Var l3 = sum_all(mul(matmul(va2, vb1), ctx.constant(c3)));
      ctx.backward(add(add(l1, l2), l3));
      const std::string at = std::to_string(m) + "x" + std::to_string(k) +
                             "x" + std::to_string(n) + " at " +
                             simd::active_level_name();
      EXPECT_TRUE(same_bits(ctx.grad(pa), da)) << "dA " << at;
      EXPECT_TRUE(same_bits(ctx.grad(pa2), da2)) << "dA2 " << at;
      EXPECT_TRUE(same_bits(ctx.grad(pb1), db1)) << "dB1 " << at;
      EXPECT_TRUE(same_bits(ctx.grad(pb2), db2)) << "dB2 " << at;
      simd::set_dispatch_level(prev);
    }
  }
}

TEST(Tape, FirstGradientContributionKeepsZeroFillBits) {
  // d(Σ x∘c)/dx = 1·c, so the entry where c is −0 gets a −0 delta.  Added
  // onto a zero-filled slot it becomes 0 + (−0) = +0; a delta moved into an
  // empty slot must read the same, sign bit included.
  Matrix x{{2.0, -3.0}};
  Ctx ctx;
  Var vx = ctx.leaf(x);
  ctx.backward(sum_all(mul(vx, ctx.constant(Matrix{{-0.0, 5.0}}))));
  const Matrix g = ctx.grad(x);
  EXPECT_EQ(g(0, 0), 0.0);
  EXPECT_FALSE(std::signbit(g(0, 0)));
  EXPECT_EQ(g(0, 1), 5.0);
}

TEST(Tape, MixingTapesThrows) {
  Ctx c1, c2;
  Var a = c1.constant(Matrix{{1.0}});
  Var b = c2.constant(Matrix{{1.0}});
  EXPECT_THROW(add(a, b), Error);
}

struct GradCheckCase {
  const char* name;
  // Builds loss from the leaf Var.
  std::function<Var(Ctx&, Var)> build;
  std::size_t rows, cols;
};

// Without a printer gtest dumps the raw bytes, pointers included, so the
// listed test names would change with every load address.
void PrintTo(const GradCheckCase& tc, std::ostream* os) { *os << tc.name; }

class GradCheck : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(GradCheck, MatchesFiniteDifferences) {
  const auto& tc = GetParam();
  Rng rng(1234);
  Matrix p = Matrix::randn(tc.rows, tc.cols, rng, 0.5);

  auto eval_loss = [&]() {
    Ctx ctx;
    return tc.build(ctx, ctx.leaf(p)).value()(0, 0);
  };
  Matrix num = numerical_grad(p, eval_loss);

  Ctx ctx;
  Var loss = tc.build(ctx, ctx.leaf(p));
  ctx.backward(loss);
  Matrix ana = ctx.grad(p);

  ASSERT_TRUE(ana.same_shape(num));
  EXPECT_LT((ana - num).max_abs(), 1e-5) << tc.name;
}

const Matrix kFixedB = [] {
  Rng rng(99);
  return Matrix::randn(4, 3, rng, 0.7);
}();

INSTANTIATE_TEST_SUITE_P(
    Ops, GradCheck,
    ::testing::Values(
        GradCheckCase{"sum_of_square",
                      [](Ctx&, Var x) { return sum_all(square(x)); }, 3, 4},
        GradCheckCase{"mean_of_sigmoid",
                      [](Ctx&, Var x) { return mean_all(sigmoid(x)); }, 2, 5},
        GradCheckCase{"mean_of_tanh",
                      [](Ctx&, Var x) { return mean_all(tanh_op(x)); }, 4, 2},
        GradCheckCase{"sum_of_relu",
                      [](Ctx&, Var x) { return sum_all(relu(x)); }, 5, 3},
        GradCheckCase{"sum_of_abs",
                      [](Ctx&, Var x) { return sum_all(abs_op(x)); }, 3, 3},
        GradCheckCase{
            "matmul_then_mean",
            [](Ctx& ctx, Var x) {
              return mean_all(matmul(x, ctx.constant(kFixedB)));
            },
            5, 4},
        GradCheckCase{
            "matmul_rhs",
            [](Ctx& ctx, Var x) {
              return mean_all(square(matmul(ctx.constant(kFixedB), x)));
            },
            3, 2},
        GradCheckCase{
            "row_broadcast_bias",
            [](Ctx& ctx, Var x) {
              Matrix base(6, 4, 0.25);
              return sum_all(
                  square(add_row_broadcast(ctx.constant(base), x)));
            },
            1, 4},
        GradCheckCase{
            "concat_then_square",
            [](Ctx& ctx, Var x) {
              Matrix other(3, 2, 1.5);
              return sum_all(square(concat_cols(x, ctx.constant(other))));
            },
            3, 3},
        GradCheckCase{"slice_then_sum",
                      [](Ctx&, Var x) {
                        return sum_all(square(slice_cols(x, 1, 3)));
                      },
                      4, 5},
        GradCheckCase{"mean_rows_then_square",
                      [](Ctx&, Var x) {
                        return sum_all(square(mean_rows(x)));
                      },
                      6, 3},
        GradCheckCase{
            "mse_against_constant",
            [](Ctx& ctx, Var x) {
              Matrix tgt(4, 4, 0.5);
              return mse(x, ctx.constant(tgt));
            },
            4, 4},
        GradCheckCase{
            "composite_chain",
            [](Ctx& ctx, Var x) {
              Var h = tanh_op(matmul(x, ctx.constant(kFixedB)));
              return mean_all(mul(h, h));
            },
            2, 4},
        GradCheckCase{"scale_and_add_scalar",
                      [](Ctx&, Var x) {
                        return sum_all(square(add_scalar(scale(x, 3.0), -1.0)));
                      },
                      2, 2}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

TEST(Optim, SgdConvergesOnQuadratic) {
  // min ‖w − target‖² by plain SGD.
  Matrix w(1, 3);
  Matrix target{{1.0, -2.0, 0.5}};
  Sgd opt(0.1);
  opt.register_param(&w);
  for (int i = 0; i < 200; ++i) {
    Ctx ctx;
    Var loss = mse(ctx.leaf(w), ctx.constant(target));
    ctx.backward(loss);
    opt.step(ctx);
  }
  EXPECT_LT((w - target).max_abs(), 1e-4);
}

TEST(Optim, MomentumAcceleratesIllConditionedQuadratic) {
  Matrix scalevec{{10.0, 0.1}};
  auto run = [&](double momentum) {
    Matrix w{{5.0, 5.0}};
    Sgd opt(0.05, momentum);
    opt.register_param(&w);
    for (int i = 0; i < 150; ++i) {
      Ctx ctx;
      Var scaled = mul(ctx.leaf(w), ctx.constant(scalevec));
      ctx.backward(mean_all(square(scaled)));
      opt.step(ctx);
    }
    return w.max_abs();
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optim, AdamConvergesOnLinearRegression) {
  Rng rng(7);
  Matrix x = Matrix::randn(64, 3, rng);
  Matrix coef{{2.0}, {-1.0}, {0.5}};
  Matrix y = matmul(x, coef);
  Matrix w(3, 1);
  Adam opt(0.05);
  opt.register_param(&w);
  for (int i = 0; i < 500; ++i) {
    Ctx ctx;
    Var pred = matmul(ctx.constant(x), ctx.leaf(w));
    ctx.backward(mse(pred, ctx.constant(y)));
    opt.step(ctx);
  }
  EXPECT_LT((w - coef).max_abs(), 1e-2);
}

TEST(Optim, ClipNormBoundsUpdateMagnitude) {
  Matrix w{{1000.0}};
  Sgd opt(1.0);
  opt.register_param(&w);
  opt.set_clip_norm(0.5);
  Ctx ctx;
  ctx.backward(sum_all(square(ctx.leaf(w))));  // grad = 2000
  opt.step(ctx);
  // Update magnitude must be lr·clip = 0.5.
  EXPECT_NEAR(w(0, 0), 999.5, 1e-9);
}

TEST(Optim, StepWithoutParamsThrows) {
  Sgd opt(0.1);
  Ctx ctx;
  Matrix w{{1.0}};
  ctx.backward(sum_all(ctx.leaf(w)));
  EXPECT_THROW(opt.step(ctx), Error);
}

}  // namespace
}  // namespace pddl::ag
