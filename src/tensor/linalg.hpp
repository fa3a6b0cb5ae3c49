// Direct linear-algebra solvers used by the regression engines.
//
//  * gram — XᵀX for the normal equations.
//  * cholesky / cholesky_solve — SPD systems (ridge / normal equations).
//  * qr_decompose / least_squares_qr — numerically safer OLS path used by
//    LinearRegression; falls back to a tiny ridge if the design matrix is
//    rank-deficient.
//  * solve_linear_system — square systems via partial-pivot LU.
#pragma once

#include "tensor/matrix.hpp"

namespace pddl {

// XᵀX for an m×n X, bit-identical to matmul(x.transposed(), x): only the
// upper triangle is computed, then mirrored.
Matrix gram(const Matrix& x);

// Lower-triangular L with A = L·Lᵀ.  Throws pddl::Error if A is not SPD
// (within `jitter` tolerance on the diagonal).
Matrix cholesky(const Matrix& a);

// Solve A·x = b for SPD A via Cholesky.
Vector cholesky_solve(const Matrix& a, const Vector& b);

// Householder QR of an m×n (m ≥ n) matrix: returns thin Q (m×n) and R (n×n).
struct QrResult {
  Matrix q;  // m×n, orthonormal columns
  Matrix r;  // n×n, upper triangular
};
QrResult qr_decompose(const Matrix& a);

// Least-squares solution of min ‖A·x − b‖₂ via QR; if R is numerically
// singular, solves the ridge-regularised normal equations instead.
Vector least_squares_qr(const Matrix& a, const Vector& b);

// Square system A·x = b via LU with partial pivoting.
Vector solve_linear_system(Matrix a, Vector b);

}  // namespace pddl
