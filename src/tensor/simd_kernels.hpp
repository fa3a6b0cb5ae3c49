// Internal declarations shared by simd.cpp (scalar + dispatch) and
// simd_avx2.cpp (AVX2 TU, compiled with -mavx2 and no -mfma).  Not part of
// the public surface — include tensor/simd.hpp instead.
#pragma once

#include <cstddef>

namespace pddl::simd::detail {

// Shared constants of the Cephes expf sequence.  Both the scalar and the
// AVX2 implementation must execute the exact same operation list over these
// values (see fast_expf in simd.cpp) — that is what makes the f32
// activations bit-identical across dispatch levels.
inline constexpr float kExpClamp = 87.3365478515625f;  // < ln(FLT_MAX)
inline constexpr float kLog2E = 1.44269504088896341f;
inline constexpr float kExpC1 = 0.693359375f;          // ln2 hi part
inline constexpr float kExpC2 = -2.12194440e-4f;       // ln2 lo part
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// Scalar implementations (simd.cpp).  The AVX2 kernels call these for their
// n-remainder columns; keeping them in the baseline TU (no -mavx2) means the
// compiler can never fuse or re-vectorize them differently from the
// fallback path.
void dot_rows_transposed_f64_scalar(const double* x, const double* bt,
                                    std::size_t n, std::size_t k_dim,
                                    const double* bias, double* y);
void matmul_rows_transposed_b_f64_scalar(const double* a, std::size_t m,
                                         const double* bt, std::size_t n,
                                         std::size_t k_dim, double* out);
void gemm_rows_f64_scalar(const double* a, std::size_t m, std::size_t k,
                          const double* w, std::size_t ncols, double* dst);
void axpy_f64_scalar(double* dst, const double* src, double s, std::size_t n);
void sub_dots_f64_scalar(const double* x, const double* rows,
                         std::size_t stride, std::size_t m, std::size_t k_dim,
                         double* acc);
void dot_rows_transposed_f32_scalar(const float* x, const float* bt,
                                    std::size_t n, std::size_t k_dim,
                                    const float* bias, float* y);
void matmul_rows_transposed_b_f32_scalar(const float* a, std::size_t m,
                                         const float* bt, std::size_t n,
                                         std::size_t k_dim, float* out);
void gemm_rows_f32_scalar(const float* a, std::size_t m, std::size_t k,
                          const float* w, std::size_t ncols, float* dst);
void axpy_f32_scalar(float* dst, const float* src, float s, std::size_t n);
void sigmoid_inplace_f32_scalar(float* x, std::size_t n);
void tanh_inplace_f32_scalar(float* x, std::size_t n);

#if defined(PDDL_HAVE_AVX2_KERNELS)
// AVX2 implementations (simd_avx2.cpp).
void dot_rows_transposed_f64_avx2(const double* x, const double* bt,
                                  std::size_t n, std::size_t k_dim,
                                  const double* bias, double* y);
void matmul_rows_transposed_b_f64_avx2(const double* a, std::size_t m,
                                       const double* bt, std::size_t n,
                                       std::size_t k_dim, double* out);
void gemm_rows_f64_avx2(const double* a, std::size_t m, std::size_t k,
                        const double* w, std::size_t ncols, double* dst);
void axpy_f64_avx2(double* dst, const double* src, double s, std::size_t n);
void sub_dots_f64_avx2(const double* x, const double* rows, std::size_t stride,
                       std::size_t m, std::size_t k_dim, double* acc);
void dot_rows_transposed_f32_avx2(const float* x, const float* bt,
                                  std::size_t n, std::size_t k_dim,
                                  const float* bias, float* y);
void matmul_rows_transposed_b_f32_avx2(const float* a, std::size_t m,
                                       const float* bt, std::size_t n,
                                       std::size_t k_dim, float* out);
void gemm_rows_f32_avx2(const float* a, std::size_t m, std::size_t k,
                        const float* w, std::size_t ncols, float* dst);
void axpy_f32_avx2(float* dst, const float* src, float s, std::size_t n);
void sigmoid_inplace_f32_avx2(float* x, std::size_t n);
void tanh_inplace_f32_avx2(float* x, std::size_t n);
#endif  // PDDL_HAVE_AVX2_KERNELS

}  // namespace pddl::simd::detail
