#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/linalg.hpp"
#include "tensor/simd.hpp"

namespace pddl {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a = Matrix::randn(n, n, rng);
  Matrix spd = matmul(a.transposed(), a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(1);
  Matrix a = random_spd(6, rng);
  Matrix l = cholesky(a);
  Matrix rec = matmul(l, l.transposed());
  EXPECT_LT((rec - a).max_abs(), 1e-10);
}

TEST(Cholesky, LowerTriangular) {
  Rng rng(2);
  Matrix l = cholesky(random_spd(5, rng));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = r + 1; c < 5; ++c) EXPECT_DOUBLE_EQ(l(r, c), 0.0);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and −1
  EXPECT_THROW(cholesky(a), Error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), Error);
}

TEST(CholeskySolve, SolvesSpdSystem) {
  Rng rng(3);
  Matrix a = random_spd(8, rng);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.gaussian();
  Vector b = matvec(a, x_true);
  Vector x = cholesky_solve(a, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Qr, OrthonormalColumnsAndUpperR) {
  Rng rng(4);
  Matrix a = Matrix::randn(10, 4, rng);
  QrResult qr = qr_decompose(a);
  Matrix qtq = matmul(qr.q.transposed(), qr.q);
  EXPECT_LT((qtq - Matrix::identity(4)).max_abs(), 1e-10);
  for (std::size_t r = 1; r < 4; ++r) {
    for (std::size_t c = 0; c < r; ++c) EXPECT_NEAR(qr.r(r, c), 0.0, 1e-12);
  }
  Matrix rec = matmul(qr.q, qr.r);
  EXPECT_LT((rec - a).max_abs(), 1e-10);
}

TEST(LeastSquares, RecoverPlantedCoefficientsExactlyDetermined) {
  Rng rng(5);
  Matrix a = Matrix::randn(20, 5, rng);
  Vector coef{2.0, -1.0, 0.5, 3.0, -0.25};
  Vector b = matvec(a, coef);
  Vector x = least_squares_qr(a, b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], coef[i], 1e-9);
}

TEST(LeastSquares, MinimizesResidualWithNoise) {
  Rng rng(6);
  Matrix a = Matrix::randn(200, 3, rng);
  Vector coef{1.0, 2.0, 3.0};
  Vector b = matvec(a, coef);
  for (auto& v : b) v += rng.gaussian(0.0, 0.01);
  Vector x = least_squares_qr(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], coef[i], 0.01);
  // The gradient Aᵀ(Ax−b) must vanish at the optimum.
  Vector grad = matvec_transposed(a, vsub(matvec(a, x), b));
  EXPECT_LT(norm2(grad), 1e-8);
}

TEST(LeastSquares, RankDeficientFallsBackToRidge) {
  // Two identical columns: infinitely many OLS solutions; the ridge fallback
  // must return a finite solution with a small residual.
  Matrix a(10, 2);
  Rng rng(7);
  for (std::size_t i = 0; i < 10; ++i) {
    const double v = rng.gaussian();
    a(i, 0) = v;
    a(i, 1) = v;
  }
  Vector b = a.col(0);
  Vector x = least_squares_qr(a, b);
  EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
  Vector r = vsub(matvec(a, x), b);
  EXPECT_LT(norm2(r), 1e-3);
}

TEST(LinearSolve, MatchesKnownSolution) {
  Matrix a{{2, 1}, {1, 3}};
  Vector b{5, 10};
  Vector x = solve_linear_system(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolve, SingularThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(solve_linear_system(a, Vector{1, 2}), Error);
}

TEST(LinearSolve, PivotingHandlesZeroLeadingEntry) {
  Matrix a{{0, 1}, {1, 0}};
  Vector x = solve_linear_system(a, Vector{2, 3});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

// Parameterized property: random SPD solve residuals stay tiny across sizes.
class SpdSolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpdSolveProperty, ResidualIsTiny) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t n = 2 + GetParam() % 12;
  Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.gaussian();
  Vector x = cholesky_solve(a, b);
  Vector r = vsub(matvec(a, x), b);
  EXPECT_LT(norm2(r), 1e-8 * (1.0 + norm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveProperty, ::testing::Range(0, 12));

TEST(LeastSquares, ScaleInvariantAcrossColumns) {
  // Columns spanning eleven orders of magnitude must still solve exactly
  // (column equilibration inside the solver).
  Rng rng(88);
  Matrix a(30, 3);
  Vector coef{5.0, 0.5, 2e-11};
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = rng.uniform(0.0, 100.0);
    a(i, 2) = rng.uniform(1e10, 1e12);
    b[i] = dot(coef, a.row(i));
  }
  Vector x = least_squares_qr(a, b);
  EXPECT_NEAR(x[0], coef[0], 1e-6);
  EXPECT_NEAR(x[1], coef[1], 1e-8);
  EXPECT_NEAR(x[2] / coef[2], 1.0, 1e-6);
}

// ---- bit-exact kernels: the new routines against the formulas they
// replaced, kept here verbatim as oracles, at every dispatch level ----

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The scalar Cholesky loop cholesky() ran before it was vectorized.
Matrix cholesky_oracle(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

// Both dispatch levels this host can run (scalar twice when it has no AVX2
// or PDDL_DISPATCH=scalar caps it).
const simd::DispatchLevel kLevels[] = {simd::DispatchLevel::kScalar,
                                       simd::DispatchLevel::kAvx2};

class LevelGuard {
 public:
  explicit LevelGuard(simd::DispatchLevel level)
      : prev_(simd::set_dispatch_level(level)) {}
  ~LevelGuard() { simd::set_dispatch_level(prev_); }

 private:
  simd::DispatchLevel prev_;
};

TEST(Cholesky, MatchesScalarOracleBitForBit) {
  // Sizes cover every remainder of the 4-row vector loop, at both ends of
  // the column sweep (the rows below pivot j run from n − 1 down to 0).
  Rng rng(101);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 17u, 64u, 131u}) {
    const Matrix a = random_spd(n, rng);
    const Matrix want = cholesky_oracle(a);
    for (const simd::DispatchLevel level : kLevels) {
      LevelGuard g(level);
      EXPECT_TRUE(same_bits(cholesky(a), want))
          << "n=" << n << " at " << simd::active_level_name();
    }
  }
}

TEST(Gram, MatchesMatmulOfTransposeBitForBit) {
  // Shapes straddle matmul's 64-row and 256-column tiles and widths that
  // are not multiples of 4; zeros cover the skipped terms (planted entries,
  // a zero row, a zero column), which gram skips on the other factor of the
  // mirrored half.
  Rng rng(102);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {7, 3}, {50, 13}, {130, 67}, {70, 301}, {200, 258}};
  for (const auto& [m, n] : shapes) {
    Matrix x = Matrix::randn(m, n, rng);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.uniform(0.0, 1.0) < 0.2) x(i, j) = 0.0;
      }
    }
    if (m > 2) {
      for (std::size_t j = 0; j < n; ++j) x(m / 2, j) = 0.0;
    }
    if (n > 2) {
      for (std::size_t i = 0; i < m; ++i) x(i, n - 2) = 0.0;
    }
    const Matrix want = matmul(x.transposed(), x);
    for (const simd::DispatchLevel level : kLevels) {
      LevelGuard g(level);
      EXPECT_TRUE(same_bits(gram(x), want))
          << m << "x" << n << " at " << simd::active_level_name();
    }
  }
}

}  // namespace
}  // namespace pddl
