#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "tensor/simd.hpp"

namespace pddl {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    PDDL_CHECK(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng,
                     double stddev) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng.gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::uniform(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                       double hi) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::column(const Vector& v) {
  Matrix m(v.size(), 1);
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

Matrix Matrix::row_vector(const Vector& v) {
  Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

Vector Matrix::row(std::size_t r) const {
  PDDL_CHECK(r < rows_, "row index out of range");
  return Vector(row_ptr(r), row_ptr(r) + cols_);
}

Vector Matrix::col(std::size_t c) const {
  PDDL_CHECK(c < cols_, "col index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  PDDL_CHECK(r < rows_ && v.size() == cols_, "set_row shape mismatch");
  std::copy(v.begin(), v.end(), row_ptr(r));
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  PDDL_CHECK(c < cols_ && v.size() == rows_, "set_col shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  PDDL_CHECK(same_shape(other), "operator+= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  PDDL_CHECK(same_shape(other), "operator-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  PDDL_CHECK(same_shape(other), "hadamard shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(const Matrix& a, double s) {
  Matrix out = a;
  out *= s;
  return out;
}

Matrix operator*(double s, const Matrix& a) { return a * s; }

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.hadamard_inplace(b);
  return out;
}

namespace {
// Cache-block shape for the big-product gemm path: one B panel is
// kKc×kNc doubles = 128 KiB, sized to sit in L2 while it is streamed
// against every row of A.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  PDDL_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch: ",
             a.rows(), "x", a.cols(), " · ", b.rows(), "x", b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n);
  if (k <= kKc || n <= kNc) {
    // Small B: the whole operand fits comfortably in cache, so a plain
    // i-k-j sweep (inner loop contiguous in both b and out) is optimal.
    // Dispatched (tensor/simd.hpp): the SIMD variant vectorizes the j loop
    // element-wise, so it is bit-identical to the scalar sweep.
    simd::gemm_rows_f64(a.data(), m, k, b.data(), n, out.data());
    return out;
  }
  // Blocked path: tile over k and n so one kKc×kNc panel of B is reused
  // across every row of A before the next panel is touched.  Each out
  // element still receives its partial sums directly and in ascending-k
  // order (k tiles ascend, kk ascends within a tile), so the result is
  // bit-identical to the small-B sweep.
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t k1 = std::min(k, k0 + kKc);
    for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
      const std::size_t j1 = std::min(n, j0 + kNc);
      for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a.row_ptr(i);
        double* orow = out.row_ptr(i);
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double aik = arow[kk];
          if (aik == 0.0) continue;
          const double* brow = b.row_ptr(kk);
          simd::axpy_f64(orow + j0, brow + j0, aik, j1 - j0);
        }
      }
    }
  }
  return out;
}

void dot_rows_transposed(const double* x, const double* bt, std::size_t n,
                         std::size_t k_dim, const double* bias, double* y) {
  // Runtime-dispatched (tensor/simd.hpp); every level accumulates each
  // output's partial sums in the same ascending-k order, so the result is
  // bit-identical whether the scalar fallback or the AVX2 kernel runs.
  simd::dot_rows_transposed_f64(x, bt, n, k_dim, bias, y);
}

void matmul_rows_transposed_b(const double* a, std::size_t m, const double* bt,
                              std::size_t n, std::size_t k_dim, double* out) {
  // Each element is an independent ascending-k dot, so the dispatch level
  // (and the kernel's loop order) only changes cache behaviour, never the
  // bits.
  simd::matmul_rows_transposed_b_f64(a, m, bt, n, k_dim, out);
}

Matrix matmul_transposed_b(const Matrix& a, const Matrix& bt) {
  PDDL_CHECK(a.cols() == bt.cols(), "matmul_transposed_b shape mismatch: ",
             a.rows(), "x", a.cols(), " · (", bt.rows(), "x", bt.cols(),
             ")ᵀ");
  Matrix out(a.rows(), bt.rows());
  simd::matmul_rows_transposed_b_f64(a.data(), a.rows(), bt.data(), bt.rows(),
                                     bt.cols(), out.data());
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  PDDL_CHECK(a.cols() == x.size(), "matvec shape mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, const Vector& x) {
  PDDL_CHECK(a.rows() == x.size(), "matvec_transposed shape mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  PDDL_CHECK(a.size() == b.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

Vector vsub(const Vector& a, const Vector& b) {
  PDDL_CHECK(a.size() == b.size(), "vsub size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector vscale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void axpy(Vector& a, double s, const Vector& b) {
  PDDL_CHECK(a.size() == b.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double cosine_similarity(const Vector& a, const Vector& b) {
  const double na = norm2(a);
  const double nb = norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[\n";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << "  ";
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << '\n';
  }
  return os << ']';
}

}  // namespace pddl
