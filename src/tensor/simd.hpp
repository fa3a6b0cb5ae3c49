// Runtime-dispatched SIMD micro-kernels for the inference hot path.
//
// Every kernel here exists in (at least) two implementations — a portable
// scalar one and an AVX2 one — selected once per process by CPUID and
// overridable for testing.  The overriding design constraint is *bit
// parity*: a kernel must return the exact same bits at every dispatch
// level, so the engine's ≤1e-9 tape-parity contract (double) and the f32
// error budget (float) are properties of the arithmetic, never of the
// machine the binary happens to land on.  Two rules make that possible:
//
//   1. Vectorize across independent *outputs*, never across a reduction.
//      Each SIMD lane owns one output element and accumulates its partial
//      sums in the same ascending-k order as the scalar loop (dot kernels
//      transpose 4×4 / 8×8 operand tiles in-register to feed the lanes).
//      Element-wise kernels (axpy, activations) are trivially lane-exact.
//   2. No FMA contraction.  simd_avx2.cpp is compiled with -mavx2 but
//      deliberately *not* -mfma (see src/tensor/CMakeLists.txt): every
//      multiply-add stays a separate IEEE mul + add, matching the scalar
//      code the baseline TU produces.  "AVX2/FMA" in the roadmap refers to
//      the hardware class targeted, not to contracted arithmetic.
//
// The float transcendentals (fast_expf / fast_sigmoidf / fast_tanhf) use a
// Cephes-style polynomial whose operation sequence is exactly expressible
// in both scalar IEEE ops and AVX2 intrinsics (mul/add/sub/div/floor/cvt/
// shift only), so sigmoid_inplace_f32 / tanh_inplace_f32 are bit-identical
// across levels too — unlike libm's exp/tanh, which have no vector form
// with matching bits.  The double engine therefore keeps libm (scalar
// everywhere); only the f32 engine uses the fast transcendentals.
//
// Dispatch: the active level starts at min(hardware support, PDDL_DISPATCH
// env override) and can be moved programmatically (clamped to that same
// maximum) by set_dispatch_level — the forced-scalar CI leg runs the whole
// test suite under PDDL_DISPATCH=scalar.
#pragma once

#include <cstddef>

namespace pddl::simd {

enum class DispatchLevel { kScalar = 0, kAvx2 = 1 };

// Highest level this build + CPU + PDDL_DISPATCH env cap can run.  The env
// var is read once, at first use: "scalar" pins the whole process to the
// fallback, "avx2" is a no-op cap on AVX2 hardware.
DispatchLevel max_supported_level();
// Level the kernels currently run at.
DispatchLevel active_level();
// Programmatic override for tests; clamped to max_supported_level().
// Returns the previous level so callers can restore it.
DispatchLevel set_dispatch_level(DispatchLevel level);
const char* level_name(DispatchLevel level);
// Shorthand for level_name(active_level()) — what benches and the serve
// metrics report ("scalar" / "avx2").
const char* active_level_name();

// ---- f64 kernels (bit-identical to the pre-dispatch scalar code) ----
// y[j] = Σ_k x[k]·bt[j·k_dim + k] (+ bias[j] when bias != nullptr).
void dot_rows_transposed_f64(const double* x, const double* bt, std::size_t n,
                             std::size_t k_dim, const double* bias, double* y);
// out[i·n + j] = Σ_k a[i·k_dim + k]·bt[j·k_dim + k] for every row i < m.
void matmul_rows_transposed_b_f64(const double* a, std::size_t m,
                                  const double* bt, std::size_t n,
                                  std::size_t k_dim, double* out);
// dst (m × ncols) = a (m × k) · w (k × ncols, tape layout), zero-initialised;
// ascending-k accumulation with zero-skip (matmul's small-path order).
void gemm_rows_f64(const double* a, std::size_t m, std::size_t k,
                   const double* w, std::size_t ncols, double* dst);
// dst[i] += s · src[i].
void axpy_f64(double* dst, const double* src, double s, std::size_t n);
// acc[r] −= rows[r·stride + k]·x[k] for k = 0, 1, …, k_dim−1 in turn, for
// every r < m: the Cholesky column update, one rounded mul and one rounded
// sub per k.  The AVX2 kernel runs four rows per vector, one lane each.
void sub_dots_f64(const double* x, const double* rows, std::size_t stride,
                  std::size_t m, std::size_t k_dim, double* acc);

// ---- f32 kernels (same shapes, single precision) ----
void dot_rows_transposed_f32(const float* x, const float* bt, std::size_t n,
                             std::size_t k_dim, const float* bias, float* y);
void matmul_rows_transposed_b_f32(const float* a, std::size_t m,
                                  const float* bt, std::size_t n,
                                  std::size_t k_dim, float* out);
void gemm_rows_f32(const float* a, std::size_t m, std::size_t k,
                   const float* w, std::size_t ncols, float* dst);
void axpy_f32(float* dst, const float* src, float s, std::size_t n);
// x[i] = 1/(1+fast_expf(−x[i])) resp. fast_tanhf(x[i]), vectorized under
// AVX2 with the identical operation sequence (bit-parity across levels).
void sigmoid_inplace_f32(float* x, std::size_t n);
void tanh_inplace_f32(float* x, std::size_t n);

// ---- scalar fast float transcendentals ----
// Cephes-style expf: |rel err| ≲ 2 ulp over the clamped input range
// [−87.336, 87.336]; the f32 engine's activations are built on it.
float fast_expf(float x);
float fast_sigmoidf(float x);
float fast_tanhf(float x);

}  // namespace pddl::simd
