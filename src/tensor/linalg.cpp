#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hpp"

namespace pddl {

namespace {
// matmul's blocked-path tile (tensor/matrix.cpp): a kKc-row slab of x by a
// kNc-column panel, 128 KiB, streamed against the output rows while it sits
// in L2.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

Matrix gram(const Matrix& x) {
  const std::size_t n = x.rows(), f = x.cols();
  Matrix out(f, f);
  // Upper triangle only, tiled over rows (k) and output columns (j) the way
  // matmul's blocked path is.  Element (p, q) receives x(i, p)·x(i, q) in
  // ascending i, skipping a zero x(i, p): the order matmul(xᵀ, x) uses.
  for (std::size_t k0 = 0; k0 < n; k0 += kKc) {
    const std::size_t k1 = std::min(n, k0 + kKc);
    for (std::size_t j0 = 0; j0 < f; j0 += kNc) {
      const std::size_t j1 = std::min(f, j0 + kNc);
      for (std::size_t p = 0; p < j1; ++p) {
        const std::size_t lo = std::max(p, j0);
        double* orow = out.row_ptr(p) + lo;
        for (std::size_t i = k0; i < k1; ++i) {
          const double xip = x(i, p);
          if (xip == 0.0) continue;
          simd::axpy_f64(orow, x.row_ptr(i) + lo, xip, j1 - lo);
        }
      }
    }
  }
  // Mirror.  matmul would skip the zero x(i, q) terms of (q, p) instead of
  // the zero x(i, p) ones, but a skipped term is a ±0 product and adding
  // ±0 never changes a sum that started at +0 (DESIGN.md §17).
  for (std::size_t p = 0; p < f; ++p) {
    for (std::size_t q = p + 1; q < f; ++q) out(q, p) = out(p, q);
  }
  return out;
}

Matrix cholesky(const Matrix& a) {
  PDDL_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  Vector s(n);
  for (std::size_t j = 0; j < n; ++j) {
    // s = a(·, j) − Σ_{k<j} l(·, k)·l(j, k), one subtraction per k in
    // ascending k, for the pivot row and every row below it.
    for (std::size_t i = j; i < n; ++i) s[i - j] = a(i, j);
    const double* lj = l.row_ptr(j);
    simd::sub_dots_f64(lj, lj, n, 1, j, s.data());
    const double d = s[0];
    PDDL_CHECK(d > 0.0, "cholesky: matrix is not positive definite (pivot ", d,
               " at ", j, ")");
    l(j, j) = std::sqrt(d);
    if (j + 1 == n) break;
    simd::sub_dots_f64(lj, l.row_ptr(j + 1), n, n - j - 1, j, s.data() + 1);
    for (std::size_t i = j + 1; i < n; ++i) l(i, j) = s[i - j] / l(j, j);
  }
  return l;
}

Vector cholesky_solve(const Matrix& a, const Vector& b) {
  PDDL_CHECK(a.rows() == b.size(), "cholesky_solve shape mismatch");
  const Matrix l = cholesky(a);
  const std::size_t n = b.size();
  // Forward substitution: L·y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Backward substitution: Lᵀ·x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

QrResult qr_decompose(const Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  PDDL_CHECK(m >= n, "qr_decompose: need rows >= cols");
  // Modified Gram–Schmidt with re-orthogonalisation; stable enough for the
  // well-scaled design matrices produced by StandardScaler.
  Matrix q(m, n), r(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector v = a.col(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < j; ++i) {
        const Vector qi = q.col(i);
        const double proj = dot(qi, v);
        r(i, j) += proj;
        axpy(v, -proj, qi);
      }
    }
    const double nv = norm2(v);
    r(j, j) = nv;
    if (nv > 0.0) {
      for (auto& x : v) x /= nv;
    }
    q.set_col(j, v);
  }
  return {std::move(q), std::move(r)};
}

Vector least_squares_qr(const Matrix& a, const Vector& b) {
  PDDL_CHECK(a.rows() == b.size(), "least_squares_qr shape mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  // Column equilibration: design matrices mix columns of wildly different
  // magnitude (an intercept next to raw byte counts); scaling each column to
  // unit norm makes both the QR and the rank test scale-invariant.
  Vector col_scale(n, 1.0);
  Matrix ae = a;
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += ae(i, j) * ae(i, j);
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      col_scale[j] = norm;
      for (std::size_t i = 0; i < m; ++i) ae(i, j) /= norm;
    }
  }
  const QrResult qr = qr_decompose(ae);
  // Rank test on the equilibrated R (all diagonals are O(1) at full rank).
  bool deficient = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fabs(qr.r(i, i)) <= 1e-10) deficient = true;
  }
  Vector x(n);
  if (deficient) {
    // Ridge fallback on the equilibrated system: AᵀA has unit diagonal, so
    // a tiny absolute λ is a tiny relative perturbation.
    Matrix ata = gram(ae);
    for (std::size_t i = 0; i < n; ++i) ata(i, i) += 1e-8;
    x = cholesky_solve(ata, matvec_transposed(ae, b));
  } else {
    // x = R⁻¹ Qᵀ b.
    const Vector qtb = matvec_transposed(qr.q, b);
    for (std::size_t ii = n; ii-- > 0;) {
      double s = qtb[ii];
      for (std::size_t k = ii + 1; k < n; ++k) s -= qr.r(ii, k) * x[k];
      x[ii] = s / qr.r(ii, ii);
    }
  }
  for (std::size_t j = 0; j < n; ++j) x[j] /= col_scale[j];
  return x;
}

Vector solve_linear_system(Matrix a, Vector b) {
  PDDL_CHECK(a.rows() == a.cols() && a.rows() == b.size(),
             "solve_linear_system shape mismatch");
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(piv, col))) piv = r;
    }
    PDDL_CHECK(std::fabs(a(piv, col)) > 1e-14,
               "solve_linear_system: singular matrix");
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(piv, c));
      std::swap(b[col], b[piv]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= a(ii, c) * x[c];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

}  // namespace pddl
