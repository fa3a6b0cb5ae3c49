// Scalar kernel implementations + the runtime dispatch state.
//
// The scalar bodies are the pre-dispatch kernels moved here verbatim from
// matrix.cpp / the inference engine, so the fallback level is bit-identical
// to the repository's historical behaviour (asserted by the forced-scalar
// CI leg).  This TU is compiled at the baseline target (x86-64 SSE2, no
// -mfma), so none of these loops can be contracted into FMAs.
#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "tensor/simd_kernels.hpp"

namespace pddl::simd {

namespace detail {

void dot_rows_transposed_f64_scalar(const double* x, const double* bt,
                                    std::size_t n, std::size_t k_dim,
                                    const double* bias, double* y) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = bt + j * k_dim;
    double s = 0.0;
    for (std::size_t kk = 0; kk < k_dim; ++kk) s += x[kk] * brow[kk];
    y[j] = bias == nullptr ? s : s + bias[j];
  }
}

void matmul_rows_transposed_b_f64_scalar(const double* a, std::size_t m,
                                         const double* bt, std::size_t n,
                                         std::size_t k_dim, double* out) {
  // j-outer: one pass over the weight rows, each reused across all m data
  // rows while hot.  Each element is an independent ascending-k dot, so the
  // loop order only changes cache behaviour, never the bits.
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = bt + j * k_dim;
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k_dim;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k_dim; ++kk) s += arow[kk] * brow[kk];
      out[i * n + j] = s;
    }
  }
}

void gemm_rows_f64_scalar(const double* a, std::size_t m, std::size_t k,
                          const double* w, std::size_t ncols, double* dst) {
  std::fill(dst, dst + m * ncols, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* drow = dst + i * ncols;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;
      const double* wrow = w + kk * ncols;
      for (std::size_t j = 0; j < ncols; ++j) drow[j] += aik * wrow[j];
    }
  }
}

void axpy_f64_scalar(double* dst, const double* src, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

void sub_dots_f64_scalar(const double* x, const double* rows,
                         std::size_t stride, std::size_t m, std::size_t k_dim,
                         double* acc) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* row = rows + r * stride;
    double s = acc[r];
    for (std::size_t k = 0; k < k_dim; ++k) s -= row[k] * x[k];
    acc[r] = s;
  }
}

void dot_rows_transposed_f32_scalar(const float* x, const float* bt,
                                    std::size_t n, std::size_t k_dim,
                                    const float* bias, float* y) {
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = bt + j * k_dim;
    float s = 0.0f;
    for (std::size_t kk = 0; kk < k_dim; ++kk) s += x[kk] * brow[kk];
    y[j] = bias == nullptr ? s : s + bias[j];
  }
}

void matmul_rows_transposed_b_f32_scalar(const float* a, std::size_t m,
                                         const float* bt, std::size_t n,
                                         std::size_t k_dim, float* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = bt + j * k_dim;
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k_dim;
      float s = 0.0f;
      for (std::size_t kk = 0; kk < k_dim; ++kk) s += arow[kk] * brow[kk];
      out[i * n + j] = s;
    }
  }
}

void gemm_rows_f32_scalar(const float* a, std::size_t m, std::size_t k,
                          const float* w, std::size_t ncols, float* dst) {
  std::fill(dst, dst + m * ncols, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* drow = dst + i * ncols;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      const float* wrow = w + kk * ncols;
      for (std::size_t j = 0; j < ncols; ++j) drow[j] += aik * wrow[j];
    }
  }
}

void axpy_f32_scalar(float* dst, const float* src, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

void sigmoid_inplace_f32_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = fast_sigmoidf(x[i]);
}

void tanh_inplace_f32_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = fast_tanhf(x[i]);
}

}  // namespace detail

// ---- fast float transcendentals ----
// Operation-for-operation the sequence simd_avx2.cpp executes with
// _mm256_*_ps intrinsics: clamp, floor-based range reduction against the
// split ln2, a degree-6 polynomial in Horner form, and a 2^n scale built by
// integer exponent insertion.  Every step is an exact IEEE-754 operation
// (min/max/mul/add/sub/floor/int-convert/shift), so the scalar and vector
// paths agree bit-for-bit.
float fast_expf(float x) {
  using namespace detail;
  x = std::min(x, kExpClamp);
  x = std::max(x, -kExpClamp);
  float fx = x * kLog2E + 0.5f;
  fx = std::floor(fx);
  x = x - fx * kExpC1;
  x = x - fx * kExpC2;
  const float z = x * x;
  float y = kExpP0;
  y = y * x + kExpP1;
  y = y * x + kExpP2;
  y = y * x + kExpP3;
  y = y * x + kExpP4;
  y = y * x + kExpP5;
  y = y * z + x;
  y = y + 1.0f;
  const std::int32_t n = static_cast<std::int32_t>(fx);  // fx is integral
  const float scale =
      std::bit_cast<float>(static_cast<std::uint32_t>(n + 127) << 23);
  return y * scale;
}

float fast_sigmoidf(float x) { return 1.0f / (1.0f + fast_expf(-x)); }

float fast_tanhf(float x) {
  // tanh(x) = (e^{2x} − 1) / (e^{2x} + 1); the clamp inside fast_expf keeps
  // e finite, so the quotient saturates cleanly to ±1 instead of NaN.
  const float e = fast_expf(x + x);
  return (e - 1.0f) / (e + 1.0f);
}

// ---- dispatch state ----
namespace {

DispatchLevel hardware_level() {
#if defined(PDDL_HAVE_AVX2_KERNELS) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
#endif
  return DispatchLevel::kScalar;
}

// min(hardware, PDDL_DISPATCH cap), computed once.  The env var caps the
// *maximum* (not just the initial level) so a forced-scalar CI run stays
// scalar even through tests that call set_dispatch_level.
DispatchLevel env_capped_max() {
  DispatchLevel lvl = hardware_level();
  if (const char* env = std::getenv("PDDL_DISPATCH")) {
    const std::string_view v(env);
    if (v == "scalar") {
      lvl = DispatchLevel::kScalar;
    }
    // "avx2" (or anything else) never raises past hardware support.
  }
  return lvl;
}

std::atomic<int>& level_ref() {
  static std::atomic<int> level{static_cast<int>(env_capped_max())};
  return level;
}

}  // namespace

DispatchLevel max_supported_level() {
  static const DispatchLevel lvl = env_capped_max();
  return lvl;
}

DispatchLevel active_level() {
  return static_cast<DispatchLevel>(
      level_ref().load(std::memory_order_relaxed));
}

DispatchLevel set_dispatch_level(DispatchLevel level) {
  const DispatchLevel clamped = std::min(level, max_supported_level());
  return static_cast<DispatchLevel>(level_ref().exchange(
      static_cast<int>(clamped), std::memory_order_relaxed));
}

const char* level_name(DispatchLevel level) {
  return level == DispatchLevel::kAvx2 ? "avx2" : "scalar";
}

const char* active_level_name() { return level_name(active_level()); }

// ---- dispatched entry points ----
namespace {
inline bool use_avx2() {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  return active_level() == DispatchLevel::kAvx2;
#else
  return false;
#endif
}
}  // namespace

void dot_rows_transposed_f64(const double* x, const double* bt, std::size_t n,
                             std::size_t k_dim, const double* bias,
                             double* y) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::dot_rows_transposed_f64_avx2(x, bt, n, k_dim, bias, y);
    return;
  }
#endif
  detail::dot_rows_transposed_f64_scalar(x, bt, n, k_dim, bias, y);
}

void matmul_rows_transposed_b_f64(const double* a, std::size_t m,
                                  const double* bt, std::size_t n,
                                  std::size_t k_dim, double* out) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::matmul_rows_transposed_b_f64_avx2(a, m, bt, n, k_dim, out);
    return;
  }
#endif
  detail::matmul_rows_transposed_b_f64_scalar(a, m, bt, n, k_dim, out);
}

void gemm_rows_f64(const double* a, std::size_t m, std::size_t k,
                   const double* w, std::size_t ncols, double* dst) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::gemm_rows_f64_avx2(a, m, k, w, ncols, dst);
    return;
  }
#endif
  detail::gemm_rows_f64_scalar(a, m, k, w, ncols, dst);
}

void axpy_f64(double* dst, const double* src, double s, std::size_t n) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::axpy_f64_avx2(dst, src, s, n);
    return;
  }
#endif
  detail::axpy_f64_scalar(dst, src, s, n);
}

void sub_dots_f64(const double* x, const double* rows, std::size_t stride,
                  std::size_t m, std::size_t k_dim, double* acc) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::sub_dots_f64_avx2(x, rows, stride, m, k_dim, acc);
    return;
  }
#endif
  detail::sub_dots_f64_scalar(x, rows, stride, m, k_dim, acc);
}

void dot_rows_transposed_f32(const float* x, const float* bt, std::size_t n,
                             std::size_t k_dim, const float* bias, float* y) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::dot_rows_transposed_f32_avx2(x, bt, n, k_dim, bias, y);
    return;
  }
#endif
  detail::dot_rows_transposed_f32_scalar(x, bt, n, k_dim, bias, y);
}

void matmul_rows_transposed_b_f32(const float* a, std::size_t m,
                                  const float* bt, std::size_t n,
                                  std::size_t k_dim, float* out) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::matmul_rows_transposed_b_f32_avx2(a, m, bt, n, k_dim, out);
    return;
  }
#endif
  detail::matmul_rows_transposed_b_f32_scalar(a, m, bt, n, k_dim, out);
}

void gemm_rows_f32(const float* a, std::size_t m, std::size_t k,
                   const float* w, std::size_t ncols, float* dst) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::gemm_rows_f32_avx2(a, m, k, w, ncols, dst);
    return;
  }
#endif
  detail::gemm_rows_f32_scalar(a, m, k, w, ncols, dst);
}

void axpy_f32(float* dst, const float* src, float s, std::size_t n) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::axpy_f32_avx2(dst, src, s, n);
    return;
  }
#endif
  detail::axpy_f32_scalar(dst, src, s, n);
}

void sigmoid_inplace_f32(float* x, std::size_t n) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::sigmoid_inplace_f32_avx2(x, n);
    return;
  }
#endif
  detail::sigmoid_inplace_f32_scalar(x, n);
}

void tanh_inplace_f32(float* x, std::size_t n) {
#if defined(PDDL_HAVE_AVX2_KERNELS)
  if (use_avx2()) {
    detail::tanh_inplace_f32_avx2(x, n);
    return;
  }
#endif
  detail::tanh_inplace_f32_scalar(x, n);
}

}  // namespace pddl::simd
