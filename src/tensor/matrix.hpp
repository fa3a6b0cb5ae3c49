// Dense row-major matrix of doubles plus Vector helpers.
//
// All numerical code in the repository (autograd, regression, GHN) is built
// on this type.  The sizes involved are modest (feature matrices of a few
// thousand rows, GHN hidden sizes ≤ 128): small products run a plain i-k-j
// sweep, large ones a cache-blocked gemm (see matmul), and pre-transposed
// operands get a unit-stride dot micro-kernel; no external BLAS dependency.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace pddl {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Row-major nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }
  static Matrix ones(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 1.0);
  }
  // IID entries ~ N(0, stddev^2).
  static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                      double stddev = 1.0);
  // IID entries ~ U(lo, hi).
  static Matrix uniform(std::size_t rows, std::size_t cols, Rng& rng,
                        double lo, double hi);
  // Column vector from a Vector.
  static Matrix column(const Vector& v);
  // Row vector from a Vector.
  static Matrix row_vector(const Vector& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    PDDL_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    PDDL_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);
  void set_col(std::size_t c, const Vector& v);

  Matrix transposed() const;

  // Elementwise in-place ops.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  Matrix& hadamard_inplace(const Matrix& other);

  // Frobenius norm and elementwise reductions.
  double frobenius_norm() const;
  double sum() const;
  double max_abs() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Out-of-place arithmetic.
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, double s);
Matrix operator*(double s, const Matrix& a);
Matrix hadamard(const Matrix& a, const Matrix& b);

// Matrix multiply (m×k) · (k×n) → (m×n).  Small products use a plain i-k-j
// sweep; once the B panel outgrows L1/L2 the kernel tiles over k and n so
// each B block is reused across all rows of A while cache-resident.  Both
// paths accumulate each element's partial sums in ascending-k order, so the
// result is bit-identical regardless of which path runs.
Matrix matmul(const Matrix& a, const Matrix& b);
// C = A·Bᵀ with B supplied already transposed (`bt` is n×k): a dot-product
// micro-kernel with unit stride through both operands.  This is the layout
// of choice for the skinny products GHN inference performs (1..N rows
// against pre-transposed weight matrices); per-element summation order
// matches matmul(a, b), so results agree bit-for-bit.
Matrix matmul_transposed_b(const Matrix& a, const Matrix& bt);
// Raw-pointer row kernel behind matmul_transposed_b, reusable by callers
// that manage their own buffers (the tape-free GHN inference engine):
// y[j] = Σ_k x[k]·bt[j·k_dim + k] (+ bias[j] when bias != nullptr).
void dot_rows_transposed(const double* x, const double* bt, std::size_t n,
                         std::size_t k_dim, const double* bias, double* y);
// Multi-row form of dot_rows_transposed, fused over the weight matrix:
// out[i·n + j] = Σ_k a[i·k_dim + k]·bt[j·k_dim + k] for every row i < m.
// The loop runs j-outer so each transposed weight row streams through cache
// once per call instead of once per data row — the batched GHN engine uses
// this to share gate-weight traffic across the graphs of a micro-batch.
// Every (i, j) element is the same ascending-k dot dot_rows_transposed
// computes, so the result is bit-identical to m separate row calls.
void matmul_rows_transposed_b(const double* a, std::size_t m, const double* bt,
                              std::size_t n, std::size_t k_dim, double* out);
// y = A·x.
Vector matvec(const Matrix& a, const Vector& x);
// y = Aᵀ·x.
Vector matvec_transposed(const Matrix& a, const Vector& x);

// Vector helpers.
double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);
Vector vsub(const Vector& a, const Vector& b);
Vector vscale(const Vector& a, double s);
// a += s·b.
void axpy(Vector& a, double s, const Vector& b);
// Cosine similarity in [-1, 1]; returns 0 for a zero vector.
double cosine_similarity(const Vector& a, const Vector& b);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace pddl
