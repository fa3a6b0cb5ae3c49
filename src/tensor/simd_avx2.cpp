// AVX2 kernel implementations.
//
// Compiled with -mavx2 and deliberately WITHOUT -mfma (see
// src/tensor/CMakeLists.txt): every multiply-add below is an explicit
// _mm256_add(_mm256_mul(...)) pair, so the compiler cannot contract it into
// an FMA and each lane reproduces the scalar kernel's IEEE mul + add
// sequence exactly.  Dot kernels vectorize across *output columns* — four
// doubles / eight floats at a time — and feed each lane its ascending-k
// operand stream through in-register 4×4 / 8×8 tile transposes, so the
// per-element summation order is identical to the scalar loop and results
// are bit-identical at every dispatch level (asserted by tensor_test's
// parity sweeps and the forced-scalar CI leg).
#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "tensor/simd_kernels.hpp"

namespace pddl::simd::detail {

namespace {

// Columns kk..kk+3 of rows b0..b3, transposed into 4 column vectors:
// c[m] = {b0[kk+m], b1[kk+m], b2[kk+m], b3[kk+m]}.
inline void transpose4x4_pd(const double* b0, const double* b1,
                            const double* b2, const double* b3,
                            std::size_t kk, __m256d c[4]) {
  const __m256d r0 = _mm256_loadu_pd(b0 + kk);
  const __m256d r1 = _mm256_loadu_pd(b1 + kk);
  const __m256d r2 = _mm256_loadu_pd(b2 + kk);
  const __m256d r3 = _mm256_loadu_pd(b3 + kk);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  c[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  c[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  c[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  c[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// One output quad y[j..j+4): each lane accumulates its own ascending-k dot.
inline __m256d dot4_pd(const double* x, const double* bt, std::size_t j,
                       std::size_t k_dim) {
  const double* b0 = bt + (j + 0) * k_dim;
  const double* b1 = bt + (j + 1) * k_dim;
  const double* b2 = bt + (j + 2) * k_dim;
  const double* b3 = bt + (j + 3) * k_dim;
  __m256d acc = _mm256_setzero_pd();
  std::size_t kk = 0;
  __m256d c[4];
  for (; kk + 4 <= k_dim; kk += 4) {
    transpose4x4_pd(b0, b1, b2, b3, kk, c);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[kk + 0]), c[0]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[kk + 1]), c[1]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[kk + 2]), c[2]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[kk + 3]), c[3]));
  }
  for (; kk < k_dim; ++kk) {
    const __m256d col = _mm256_set_pd(b3[kk], b2[kk], b1[kk], b0[kk]);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(x[kk]), col));
  }
  return acc;
}

// Columns kk..kk+7 of rows b0..b7 transposed into 8 column vectors.
inline void transpose8x8_ps(const float* const b[8], std::size_t kk,
                            __m256 c[8]) {
  const __m256 r0 = _mm256_loadu_ps(b[0] + kk);
  const __m256 r1 = _mm256_loadu_ps(b[1] + kk);
  const __m256 r2 = _mm256_loadu_ps(b[2] + kk);
  const __m256 r3 = _mm256_loadu_ps(b[3] + kk);
  const __m256 r4 = _mm256_loadu_ps(b[4] + kk);
  const __m256 r5 = _mm256_loadu_ps(b[5] + kk);
  const __m256 r6 = _mm256_loadu_ps(b[6] + kk);
  const __m256 r7 = _mm256_loadu_ps(b[7] + kk);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  c[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  c[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  c[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  c[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  c[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  c[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  c[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  c[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

inline __m256 dot8_ps(const float* x, const float* bt, std::size_t j,
                      std::size_t k_dim) {
  const float* b[8];
  for (std::size_t r = 0; r < 8; ++r) b[r] = bt + (j + r) * k_dim;
  __m256 acc = _mm256_setzero_ps();
  std::size_t kk = 0;
  __m256 c[8];
  for (; kk + 8 <= k_dim; kk += 8) {
    transpose8x8_ps(b, kk, c);
    for (std::size_t m = 0; m < 8; ++m) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[kk + m]), c[m]));
    }
  }
  for (; kk < k_dim; ++kk) {
    const __m256 col =
        _mm256_set_ps(b[7][kk], b[6][kk], b[5][kk], b[4][kk], b[3][kk],
                      b[2][kk], b[1][kk], b[0][kk]);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(x[kk]), col));
  }
  return acc;
}

// Vector form of fast_expf (simd.cpp): same constants, same operation
// sequence, all exact IEEE ops — bit-identical per lane to the scalar call.
inline __m256 exp_ps(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpClamp));
  x = _mm256_max_ps(x, _mm256_set1_ps(-kExpClamp));
  __m256 fx =
      _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2E)),
                    _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC1)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC2)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(kExpP5));
  y = _mm256_add_ps(_mm256_mul_ps(y, z), x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fx);  // fx is integral after floor
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
}

inline __m256 sigmoid_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  // Sign-flip via XOR is IEEE negation, matching the scalar `-x` exactly
  // (0 − x would differ on signed zeros).
  const __m256 e = exp_ps(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 tanh_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp_ps(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

}  // namespace

void dot_rows_transposed_f64_avx2(const double* x, const double* bt,
                                  std::size_t n, std::size_t k_dim,
                                  const double* bias, double* y) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d acc = dot4_pd(x, bt, j, k_dim);
    if (bias != nullptr) acc = _mm256_add_pd(acc, _mm256_loadu_pd(bias + j));
    _mm256_storeu_pd(y + j, acc);
  }
  if (j < n) {
    dot_rows_transposed_f64_scalar(x, bt + j * k_dim, n - j, k_dim,
                                   bias == nullptr ? nullptr : bias + j,
                                   y + j);
  }
}

void matmul_rows_transposed_b_f64_avx2(const double* a, std::size_t m,
                                       const double* bt, std::size_t n,
                                       std::size_t k_dim, double* out) {
  // Row-major outputs are strided across j for a fixed i, so the vectorized
  // dot runs per data row; the weight tiles stay cache-hot across rows.
  for (std::size_t i = 0; i < m; ++i) {
    dot_rows_transposed_f64_avx2(a + i * k_dim, bt, n, k_dim, nullptr,
                                 out + i * n);
  }
}

void gemm_rows_f64_avx2(const double* a, std::size_t m, std::size_t k,
                        const double* w, std::size_t ncols, double* dst) {
  std::fill(dst, dst + m * ncols, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* drow = dst + i * ncols;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;
      const double* wrow = w + kk * ncols;
      const __m256d av = _mm256_set1_pd(aik);
      std::size_t j = 0;
      for (; j + 4 <= ncols; j += 4) {
        const __m256d d = _mm256_loadu_pd(drow + j);
        const __m256d wv = _mm256_loadu_pd(wrow + j);
        _mm256_storeu_pd(drow + j, _mm256_add_pd(d, _mm256_mul_pd(av, wv)));
      }
      for (; j < ncols; ++j) drow[j] += aik * wrow[j];
    }
  }
}

void axpy_f64_avx2(double* dst, const double* src, double s, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(dst + i);
    const __m256d x = _mm256_loadu_pd(src + i);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(d, _mm256_mul_pd(sv, x)));
  }
  for (; i < n; ++i) dst[i] += s * src[i];
}

void sub_dots_f64_avx2(const double* x, const double* rows, std::size_t stride,
                       std::size_t m, std::size_t k_dim, double* acc) {
  // Four rows per vector, one lane each; every lane subtracts its own
  // products in ascending k, fed column-wise by dot4_pd's 4×4 transpose.
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* b0 = rows + (r + 0) * stride;
    const double* b1 = rows + (r + 1) * stride;
    const double* b2 = rows + (r + 2) * stride;
    const double* b3 = rows + (r + 3) * stride;
    __m256d s = _mm256_loadu_pd(acc + r);
    std::size_t k = 0;
    __m256d c[4];
    for (; k + 4 <= k_dim; k += 4) {
      transpose4x4_pd(b0, b1, b2, b3, k, c);
      s = _mm256_sub_pd(s, _mm256_mul_pd(c[0], _mm256_set1_pd(x[k + 0])));
      s = _mm256_sub_pd(s, _mm256_mul_pd(c[1], _mm256_set1_pd(x[k + 1])));
      s = _mm256_sub_pd(s, _mm256_mul_pd(c[2], _mm256_set1_pd(x[k + 2])));
      s = _mm256_sub_pd(s, _mm256_mul_pd(c[3], _mm256_set1_pd(x[k + 3])));
    }
    for (; k < k_dim; ++k) {
      const __m256d col = _mm256_set_pd(b3[k], b2[k], b1[k], b0[k]);
      s = _mm256_sub_pd(s, _mm256_mul_pd(col, _mm256_set1_pd(x[k])));
    }
    _mm256_storeu_pd(acc + r, s);
  }
  if (r < m) {
    sub_dots_f64_scalar(x, rows + r * stride, stride, m - r, k_dim, acc + r);
  }
}

void dot_rows_transposed_f32_avx2(const float* x, const float* bt,
                                  std::size_t n, std::size_t k_dim,
                                  const float* bias, float* y) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc = dot8_ps(x, bt, j, k_dim);
    if (bias != nullptr) acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias + j));
    _mm256_storeu_ps(y + j, acc);
  }
  if (j < n) {
    dot_rows_transposed_f32_scalar(x, bt + j * k_dim, n - j, k_dim,
                                   bias == nullptr ? nullptr : bias + j,
                                   y + j);
  }
}

void matmul_rows_transposed_b_f32_avx2(const float* a, std::size_t m,
                                       const float* bt, std::size_t n,
                                       std::size_t k_dim, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    dot_rows_transposed_f32_avx2(a + i * k_dim, bt, n, k_dim, nullptr,
                                 out + i * n);
  }
}

void gemm_rows_f32_avx2(const float* a, std::size_t m, std::size_t k,
                        const float* w, std::size_t ncols, float* dst) {
  std::fill(dst, dst + m * ncols, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* drow = dst + i * ncols;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      const float* wrow = w + kk * ncols;
      const __m256 av = _mm256_set1_ps(aik);
      std::size_t j = 0;
      for (; j + 8 <= ncols; j += 8) {
        const __m256 d = _mm256_loadu_ps(drow + j);
        const __m256 wv = _mm256_loadu_ps(wrow + j);
        _mm256_storeu_ps(drow + j, _mm256_add_ps(d, _mm256_mul_ps(av, wv)));
      }
      for (; j < ncols; ++j) drow[j] += aik * wrow[j];
    }
  }
}

void axpy_f32_avx2(float* dst, const float* src, float s, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 x = _mm256_loadu_ps(src + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(d, _mm256_mul_ps(sv, x)));
  }
  for (; i < n; ++i) dst[i] += s * src[i];
}

void sigmoid_inplace_f32_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, sigmoid_ps(_mm256_loadu_ps(x + i)));
  }
  if (i < n) sigmoid_inplace_f32_scalar(x + i, n - i);
}

void tanh_inplace_f32_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, tanh_ps(_mm256_loadu_ps(x + i)));
  }
  if (i < n) tanh_inplace_f32_scalar(x + i, n - i);
}

}  // namespace pddl::simd::detail
