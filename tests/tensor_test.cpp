#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace pddl {
namespace {

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 2), 6);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), Error);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, TransposeRoundTrips) {
  Rng rng(1);
  Matrix m = Matrix::randn(5, 3, rng);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulIdentityIsNoop) {
  Rng rng(2);
  Matrix m = Matrix::randn(4, 4, rng);
  EXPECT_EQ(matmul(m, Matrix::identity(4)), m);
  EXPECT_EQ(matmul(Matrix::identity(4), m), m);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), Error);
}

// Reference i-j-k product for validating the optimised matmul paths.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(Matrix, BlockedMatmulMatchesNaiveReference) {
  // Shapes straddling the small→blocked thresholds (k ≤ 64, n ≤ 256),
  // including odd sizes that leave partial tiles on every edge.
  const std::size_t shapes[][3] = {{1, 1, 1},    {7, 65, 3},   {64, 64, 300},
                                   {65, 65, 257}, {33, 300, 277}, {2, 129, 511},
                                   {130, 257, 259}};
  Rng rng(41);
  for (const auto& s : shapes) {
    const Matrix a = Matrix::randn(s[0], s[1], rng);
    const Matrix b = Matrix::randn(s[1], s[2], rng);
    const Matrix got = matmul(a, b);
    const Matrix want = naive_matmul(a, b);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_LT((got - want).max_abs(), 1e-12)
        << s[0] << "x" << s[1] << " · " << s[1] << "x" << s[2];
  }
}

TEST(Matrix, BlockedPathIsBitIdenticalToSmallPath) {
  // The blocked kernel accumulates each element in ascending-k order, same
  // as the small path; slicing a big product into n ≤ 256 column strips
  // forces the small path for comparison and must match exactly.
  Rng rng(42);
  const std::size_t m = 5, k = 100, n = 400;
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  const Matrix big = matmul(a, b);  // blocked (k > 64 and n > 256)
  Matrix strip_b(k, 200);
  for (std::size_t off = 0; off < n; off += 200) {
    for (std::size_t r = 0; r < k; ++r) {
      for (std::size_t c = 0; c < 200; ++c) strip_b(r, c) = b(r, off + c);
    }
    const Matrix strip = matmul(a, strip_b);  // small path (n ≤ 256)
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < 200; ++c) {
        EXPECT_EQ(strip(r, c), big(r, off + c)) << r << "," << off + c;
      }
    }
  }
}

TEST(Matrix, MatmulTransposedBMatchesMatmul) {
  Rng rng(43);
  for (const auto& s : {std::array<std::size_t, 3>{1, 16, 16},
                        std::array<std::size_t, 3>{9, 33, 7},
                        std::array<std::size_t, 3>{40, 70, 90}}) {
    const Matrix a = Matrix::randn(s[0], s[1], rng);
    const Matrix b = Matrix::randn(s[1], s[2], rng);
    const Matrix got = matmul_transposed_b(a, b.transposed());
    const Matrix want = matmul(a, b);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_LT((got - want).max_abs(), 1e-12);
  }
}

TEST(Matrix, DotRowsTransposedAppliesOptionalBias) {
  const Matrix bt{{1, 2}, {3, 4}, {5, 6}};  // B is 2x3, supplied transposed
  const double x[2] = {10.0, 1.0};
  const double bias[3] = {0.5, -0.5, 1.0};
  double y[3];
  dot_rows_transposed(x, bt.data(), 3, 2, nullptr, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 34.0);
  EXPECT_DOUBLE_EQ(y[2], 56.0);
  dot_rows_transposed(x, bt.data(), 3, 2, bias, y);
  EXPECT_DOUBLE_EQ(y[0], 12.5);
  EXPECT_DOUBLE_EQ(y[1], 33.5);
  EXPECT_DOUBLE_EQ(y[2], 57.0);
}

TEST(Matrix, MatmulRowsTransposedBBitIdenticalToRowCalls) {
  // The fused multi-row kernel must agree bit-for-bit with m separate
  // dot_rows_transposed calls — the batched GHN engine relies on this to
  // keep batched embeddings identical to single-graph ones.
  Rng rng(44);
  for (const auto& s : {std::array<std::size_t, 3>{1, 5, 7},
                        std::array<std::size_t, 3>{4, 16, 16},
                        std::array<std::size_t, 3>{13, 33, 9},
                        std::array<std::size_t, 3>{64, 48, 32}}) {
    const std::size_t m = s[0], k_dim = s[1], n = s[2];
    const Matrix a = Matrix::randn(m, k_dim, rng);
    const Matrix bt = Matrix::randn(n, k_dim, rng);
    std::vector<double> fused(m * n, -1.0);
    matmul_rows_transposed_b(a.data(), m, bt.data(), n, k_dim, fused.data());
    std::vector<double> row(n);
    for (std::size_t i = 0; i < m; ++i) {
      dot_rows_transposed(a.data() + i * k_dim, bt.data(), n, k_dim, nullptr,
                          row.data());
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(fused[i * n + j], row[j]) << "row " << i << " col " << j;
      }
    }
  }
}

TEST(Matrix, MatmulAssociativity) {
  Rng rng(3);
  Matrix a = Matrix::randn(3, 4, rng);
  Matrix b = Matrix::randn(4, 5, rng);
  Matrix c = Matrix::randn(5, 2, rng);
  Matrix left = matmul(matmul(a, b), c);
  Matrix right = matmul(a, matmul(b, c));
  EXPECT_LT((left - right).max_abs(), 1e-12);
}

TEST(Matrix, MatvecMatchesMatmulColumn) {
  Rng rng(4);
  Matrix a = Matrix::randn(6, 4, rng);
  Vector x = {1.0, -2.0, 0.5, 3.0};
  Vector y = matvec(a, x);
  Matrix ym = matmul(a, Matrix::column(x));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-14);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::randn(6, 4, rng);
  Vector x = {1, 2, 3, 4, 5, 6};
  Vector y1 = matvec_transposed(a, x);
  Vector y2 = matvec(a.transposed(), x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Matrix, HadamardElementwise) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {0.5, -1}};
  Matrix h = hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(0, 0), 2);
  EXPECT_DOUBLE_EQ(h(1, 1), -4);
}

TEST(Matrix, RowColAccessors) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row(1), (Vector{4, 5, 6}));
  EXPECT_EQ(m.col(2), (Vector{3, 6}));
  m.set_row(0, {7, 8, 9});
  EXPECT_EQ(m.row(0), (Vector{7, 8, 9}));
  m.set_col(0, {0, -1});
  EXPECT_DOUBLE_EQ(m(1, 0), -1);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, StreamOutputMentionsShape) {
  Matrix m(2, 2);
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find("2x2"), std::string::npos);
}

TEST(VectorOps, DotNormAndAxpy) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  axpy(a, 2.0, b);
  EXPECT_EQ(a, (Vector{9, 12, 15}));
}

TEST(VectorOps, CosineSimilarityProperties) {
  Vector a{1, 0, 0};
  Vector b{0, 1, 0};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, vscale(a, -2.0)), -1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, Vector{0, 0, 0}), 0.0);
}

TEST(VectorOps, ScaleInvarianceOfCosine) {
  Rng rng(6);
  Vector a(16), b(16);
  for (auto& x : a) x = rng.gaussian();
  for (auto& x : b) x = rng.gaussian();
  EXPECT_NEAR(cosine_similarity(a, b),
              cosine_similarity(vscale(a, 7.5), vscale(b, 0.1)), 1e-12);
}

// Property sweep: matmul distributes over addition for random shapes.
class MatmulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatmulProperty, DistributesOverAddition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 1 + rng.uniform_int(std::uint64_t{8});
  const std::size_t k = 1 + rng.uniform_int(std::uint64_t{8});
  const std::size_t n = 1 + rng.uniform_int(std::uint64_t{8});
  Matrix a = Matrix::randn(m, k, rng);
  Matrix b = Matrix::randn(k, n, rng);
  Matrix c = Matrix::randn(k, n, rng);
  Matrix lhs = matmul(a, b + c);
  Matrix rhs = matmul(a, b) + matmul(a, c);
  EXPECT_LT((lhs - rhs).max_abs(), 1e-12);
}

TEST_P(MatmulProperty, TransposeReversesProduct) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t m = 1 + rng.uniform_int(std::uint64_t{6});
  const std::size_t k = 1 + rng.uniform_int(std::uint64_t{6});
  const std::size_t n = 1 + rng.uniform_int(std::uint64_t{6});
  Matrix a = Matrix::randn(m, k, rng);
  Matrix b = Matrix::randn(k, n, rng);
  Matrix lhs = matmul(a, b).transposed();
  Matrix rhs = matmul(b.transposed(), a.transposed());
  EXPECT_LT((lhs - rhs).max_abs(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulProperty,
                         ::testing::Range(0, 10));

// ---- runtime-dispatched SIMD kernels (tensor/simd.hpp) ----
// The dispatch layer's whole contract is bit parity: every kernel must
// return the same bits at kScalar and at the hardware's maximum level.  On
// a machine without AVX2 (or under PDDL_DISPATCH=scalar) max == scalar and
// the sweeps below compare the scalar path with itself — still meaningful
// as a determinism check, and the AVX2 leg runs wherever CI has the ISA.

// Restores the active dispatch level on scope exit, so a failing EXPECT
// can't leak a forced level into later tests.
class DispatchGuard {
 public:
  explicit DispatchGuard(simd::DispatchLevel level)
      : prev_(simd::set_dispatch_level(level)) {}
  ~DispatchGuard() { simd::set_dispatch_level(prev_); }

 private:
  simd::DispatchLevel prev_;
};

// Shape sweep covering every vector-width remainder: n, k around the 4-wide
// (f64) and 8-wide (f32) tiles plus the in-between odd sizes.
constexpr std::size_t kDims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33};
constexpr std::size_t kRows[] = {1, 2, 5};

TEST(SimdDispatch, LevelOverrideClampsAndRestores) {
  const simd::DispatchLevel max = simd::max_supported_level();
  const simd::DispatchLevel before = simd::active_level();
  {
    DispatchGuard g(simd::DispatchLevel::kScalar);
    EXPECT_EQ(simd::active_level(), simd::DispatchLevel::kScalar);
    EXPECT_STREQ(simd::active_level_name(), "scalar");
    // Requesting more than the maximum clamps to it (and to scalar under a
    // PDDL_DISPATCH=scalar cap, which lowers max_supported_level itself).
    simd::set_dispatch_level(simd::DispatchLevel::kAvx2);
    EXPECT_EQ(simd::active_level(), max);
  }
  EXPECT_EQ(simd::active_level(), before);
  EXPECT_STREQ(simd::level_name(simd::DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::DispatchLevel::kAvx2), "avx2");
}

// Runs `fn` at forced-scalar and at the maximum level and hands both result
// buffers to `cmp`.  Templated over the element type of the output.
template <typename T, typename Fn>
void expect_bit_parity_sweep(std::size_t out_len, Fn&& fn,
                             const char* what) {
  std::vector<T> lo(out_len, T(0)), hi(out_len, T(0));
  {
    DispatchGuard g(simd::DispatchLevel::kScalar);
    fn(lo.data());
  }
  {
    DispatchGuard g(simd::max_supported_level());
    fn(hi.data());
  }
  for (std::size_t i = 0; i < out_len; ++i) {
    // EXPECT_EQ on the values is an exact bitwise check for non-NaN floats.
    EXPECT_EQ(lo[i], hi[i]) << what << " element " << i;
  }
}

template <typename T>
std::vector<T> random_buf(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.gaussian());
  return v;
}

template <typename T>
void run_dot_and_gemm_parity(const char* tag) {
  Rng rng(71);
  for (const std::size_t m : kRows) {
    for (const std::size_t n : kDims) {
      for (const std::size_t k : kDims) {
        const auto a = random_buf<T>(m * k, rng);
        const auto bt = random_buf<T>(n * k, rng);
        const auto bias = random_buf<T>(n, rng);
        auto w = random_buf<T>(k * n, rng);
        // gemm_rows_* skips zero a-elements; plant some to cover that path.
        auto az = a;
        az[0] = T(0);
        if (az.size() > 3) az[3] = T(0);
        expect_bit_parity_sweep<T>(
            n,
            [&](T* y) {
              if constexpr (std::is_same_v<T, double>) {
                simd::dot_rows_transposed_f64(a.data(), bt.data(), n, k,
                                              bias.data(), y);
              } else {
                simd::dot_rows_transposed_f32(a.data(), bt.data(), n, k,
                                              bias.data(), y);
              }
            },
            tag);
        expect_bit_parity_sweep<T>(
            m * n,
            [&](T* y) {
              if constexpr (std::is_same_v<T, double>) {
                simd::matmul_rows_transposed_b_f64(a.data(), m, bt.data(), n,
                                                   k, y);
              } else {
                simd::matmul_rows_transposed_b_f32(a.data(), m, bt.data(), n,
                                                   k, y);
              }
            },
            tag);
        expect_bit_parity_sweep<T>(
            m * n,
            [&](T* y) {
              if constexpr (std::is_same_v<T, double>) {
                simd::gemm_rows_f64(az.data(), m, k, w.data(), n, y);
              } else {
                simd::gemm_rows_f32(az.data(), m, k, w.data(), n, y);
              }
            },
            tag);
      }
    }
  }
}

TEST(SimdDispatch, F64KernelsBitIdenticalAcrossLevels) {
  run_dot_and_gemm_parity<double>("f64");
}

TEST(SimdDispatch, F32KernelsBitIdenticalAcrossLevels) {
  run_dot_and_gemm_parity<float>("f32");
}

TEST(SimdDispatch, SubDotsBitIdenticalAcrossLevels) {
  // Rows are read at a stride wider than k_dim, as cholesky reads the
  // prefixes of L's rows.
  Rng rng(73);
  for (const std::size_t m : kDims) {
    for (const std::size_t k : kDims) {
      const std::size_t stride = k + 3;
      const auto rows = random_buf<double>(m * stride, rng);
      const auto x = random_buf<double>(k, rng);
      const auto init = random_buf<double>(m, rng);
      expect_bit_parity_sweep<double>(
          m,
          [&](double* acc) {
            std::copy(init.begin(), init.end(), acc);
            simd::sub_dots_f64(x.data(), rows.data(), stride, m, k, acc);
          },
          "sub_dots_f64");
    }
  }
}

TEST(SimdDispatch, AxpyBitIdenticalAcrossLevels) {
  Rng rng(72);
  for (const std::size_t n : kDims) {
    const auto src64 = random_buf<double>(n, rng);
    const auto dst64 = random_buf<double>(n, rng);
    expect_bit_parity_sweep<double>(
        n,
        [&](double* y) {
          std::copy(dst64.begin(), dst64.end(), y);
          simd::axpy_f64(y, src64.data(), 0.37, n);
        },
        "axpy f64");
    const auto src32 = random_buf<float>(n, rng);
    const auto dst32 = random_buf<float>(n, rng);
    expect_bit_parity_sweep<float>(
        n,
        [&](float* y) {
          std::copy(dst32.begin(), dst32.end(), y);
          simd::axpy_f32(y, src32.data(), 0.37f, n);
        },
        "axpy f32");
  }
}

TEST(SimdDispatch, ActivationPanelsBitIdenticalAcrossLevels) {
  Rng rng(73);
  for (const std::size_t n : kDims) {
    auto x = random_buf<float>(n, rng);
    for (auto& v : x) v *= 4.0f;  // push into the saturating tails too
    expect_bit_parity_sweep<float>(
        n,
        [&](float* y) {
          std::copy(x.begin(), x.end(), y);
          simd::sigmoid_inplace_f32(y, n);
        },
        "sigmoid");
    expect_bit_parity_sweep<float>(
        n,
        [&](float* y) {
          std::copy(x.begin(), x.end(), y);
          simd::tanh_inplace_f32(y, n);
        },
        "tanh");
  }
}

// Accuracy (not parity): the fast float transcendentals must stay within a
// few float ulps of the double-precision libm reference over the range the
// GRU actually feeds them, and must saturate cleanly far outside it.
TEST(SimdDispatch, FastTranscendentalsTrackLibm) {
  for (int i = -800; i <= 800; ++i) {
    const float x = static_cast<float>(i) * 0.05f;  // [-40, 40]
    const double ex = std::exp(static_cast<double>(x));
    const double sg = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    const double th = std::tanh(static_cast<double>(x));
    EXPECT_NEAR(simd::fast_expf(x), ex, 4e-7 * ex) << "exp(" << x << ")";
    EXPECT_NEAR(simd::fast_sigmoidf(x), sg, 1e-6) << "sigmoid(" << x << ")";
    EXPECT_NEAR(simd::fast_tanhf(x), th, 1e-6) << "tanh(" << x << ")";
  }
  // Clamped tails: no inf/NaN, correct limits.
  EXPECT_EQ(simd::fast_sigmoidf(200.0f), 1.0f);
  EXPECT_NEAR(simd::fast_sigmoidf(-200.0f), 0.0f, 1e-30);
  EXPECT_NEAR(simd::fast_tanhf(200.0f), 1.0f, 1e-6);
  EXPECT_NEAR(simd::fast_tanhf(-200.0f), -1.0f, 1e-6);
  EXPECT_TRUE(std::isfinite(simd::fast_expf(1000.0f)));
  EXPECT_TRUE(std::isfinite(simd::fast_expf(-1000.0f)));
}

}  // namespace
}  // namespace pddl
