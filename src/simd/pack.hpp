#pragma once
// Pack<T, W>: a fixed-width SIMD vector of W lanes of the IEEE scalar T.
//
// This is the value type the explicit-SIMD FPAN path is built on. A Pack
// behaves exactly like a scalar under +, -, unary -, * and fma() -- each lane
// performs the identical correctly rounded IEEE operation -- so the existing
// accumulation networks in mf/add.hpp and mf/mul.hpp instantiate over packs
// unchanged (Pack opts into the mf::FloatingPoint concept below) and produce
// bit-for-bit the same limbs per lane as the scalar kernels. That is the
// whole correctness story: no separate "vectorized algorithm" exists to
// diverge from the scalar one.
//
// The primary template is a portable scalar-loop fallback that works for any
// (T, W) and is what the compiler sees when no SIMD ISA is enabled.
// Specializations map the natural widths onto SSE2, AVX/AVX2, AVX-512 and
// NEON intrinsics when the translation unit is compiled for those ISAs.
// TwoProd requires a *fused* multiply-add: every specialization uses the
// hardware FMA instruction when the ISA provides one and falls back to the
// (correct, slower) per-lane std::fma otherwise.

#include <cmath>
#include <concepts>

#include "../mf/eft.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>
#define MF_SIMD_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define MF_SIMD_ARM 1
#endif

// Which intrinsic specializations exist in this translation unit; the
// widest one fixes the build's native pack width below.
#if defined(MF_SIMD_X86) && defined(__SSE2__)
#define MF_SIMD_HAVE_SSE2 1
#else
#define MF_SIMD_HAVE_SSE2 0
#endif
#if defined(MF_SIMD_X86) && defined(__AVX__) && defined(__AVX2__)
#define MF_SIMD_HAVE_AVX2 1
#else
#define MF_SIMD_HAVE_AVX2 0
#endif
#if defined(MF_SIMD_X86) && defined(__AVX512F__)
#define MF_SIMD_HAVE_AVX512 1
#else
#define MF_SIMD_HAVE_AVX512 0
#endif
#if defined(MF_SIMD_ARM) && defined(__aarch64__)
#define MF_SIMD_HAVE_NEON 1
#else
#define MF_SIMD_HAVE_NEON 0
#endif

namespace mf::simd {

/// The widest ISA this build compiles intrinsic specializations for
/// ("scalar" if none) and its register width in bytes. Every translation
/// unit is built for one target (-march=native or the compiler's baseline),
/// and a CPU without that target cannot run the binary at all, so the
/// widest compiled ISA is also the widest one the running CPU has.
#if MF_SIMD_HAVE_AVX512
inline constexpr const char* native_isa = "avx512";
inline constexpr int native_bytes = 64;
#elif MF_SIMD_HAVE_AVX2
inline constexpr const char* native_isa = "avx2";
inline constexpr int native_bytes = 32;
#elif MF_SIMD_HAVE_SSE2
inline constexpr const char* native_isa = "sse2";
inline constexpr int native_bytes = 16;
#elif MF_SIMD_HAVE_NEON
inline constexpr const char* native_isa = "neon";
inline constexpr int native_bytes = 16;
#else
inline constexpr const char* native_isa = "scalar";
inline constexpr int native_bytes = 0;
#endif

/// Pack width every dispatched kernel of this build runs at for base type T:
/// lanes per native register, 1 without a SIMD ISA.
template <std::floating_point T>
inline constexpr int native_width =
    native_bytes == 0 ? 1 : native_bytes / static_cast<int>(sizeof(T));

/// Portable scalar-loop pack: correct for any width, on any target. The
/// small fixed-trip loops fully unroll; with vector ISAs disabled this is
/// also the reference implementation the intrinsic specializations must
/// agree with bit-for-bit (tests/simd_pack_test.cpp).
template <std::floating_point T, int W>
    requires(W >= 1)
struct Pack {
    using value_type = T;
    static constexpr int width = W;

    T lane[W];

    MF_ALWAYS_INLINE constexpr Pack() noexcept : lane{} {}

    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(T v) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = v;
        return r;
    }
    /// Unaligned load of W consecutive lanes.
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const T* p) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = p[i];
        return r;
    }
    MF_ALWAYS_INLINE void store(T* p) const noexcept {
        for (int i = 0; i < W; ++i) p[i] = lane[i];
    }
    [[nodiscard]] MF_ALWAYS_INLINE T operator[](int i) const noexcept { return lane[i]; }

    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
        return r;
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
        return r;
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
        return r;
    }
    /// Lane-wise IEEE negation (sign-bit flip, exact for -0.0 and NaN too).
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = -a.lane[i];
        return r;
    }
    /// Fused multiply-add, correctly rounded per lane (required by TwoProd).
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        Pack r;
        for (int i = 0; i < W; ++i) r.lane[i] = std::fma(a.lane[i], b.lane[i], c.lane[i]);
        return r;
    }
};

// ---------------------------------------------------------------------------
// x86 specializations. Each one is the same five operations + load/store on
// the ISA's natural register; fma() uses the fused instruction when compiled
// with FMA support and per-lane std::fma otherwise (SSE2-era parts).
// ---------------------------------------------------------------------------

#if MF_SIMD_HAVE_SSE2

template <>
struct Pack<float, 4> {
    using value_type = float;
    static constexpr int width = 4;
    __m128 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m128 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[4];
        _mm_storeu_ps(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm_xor_ps(a.v, _mm_set1_ps(-0.0f)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm_fmadd_ps(a.v, b.v, c.v));
#else
        float x[4], y[4], z[4];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 4; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

template <>
struct Pack<double, 2> {
    using value_type = double;
    static constexpr int width = 2;
    __m128d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m128d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[2];
        _mm_storeu_pd(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm_xor_pd(a.v, _mm_set1_pd(-0.0)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm_fmadd_pd(a.v, b.v, c.v));
#else
        double x[2], y[2], z[2];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 2; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

#endif  // MF_SIMD_HAVE_SSE2

#if MF_SIMD_HAVE_AVX2

template <>
struct Pack<float, 8> {
    using value_type = float;
    static constexpr int width = 8;
    __m256 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm256_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m256 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm256_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm256_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm256_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[8];
        _mm256_storeu_ps(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm256_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm256_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm256_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm256_fmadd_ps(a.v, b.v, c.v));
#else
        float x[8], y[8], z[8];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 8; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

template <>
struct Pack<double, 4> {
    using value_type = double;
    static constexpr int width = 4;
    __m256d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm256_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m256d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm256_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm256_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[4];
        _mm256_storeu_pd(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm256_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm256_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm256_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0)));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
#if defined(__FMA__)
        return Pack(_mm256_fmadd_pd(a.v, b.v, c.v));
#else
        double x[4], y[4], z[4];
        a.store(x);
        b.store(y);
        c.store(z);
        for (int i = 0; i < 4; ++i) x[i] = std::fma(x[i], y[i], z[i]);
        return load(x);
#endif
    }
};

#endif  // MF_SIMD_HAVE_AVX2

#if MF_SIMD_HAVE_AVX512

template <>
struct Pack<float, 16> {
    using value_type = float;
    static constexpr int width = 16;
    __m512 v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm512_setzero_ps()) {}
    MF_ALWAYS_INLINE explicit Pack(__m512 x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(_mm512_set1_ps(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(_mm512_loadu_ps(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { _mm512_storeu_ps(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[16];
        _mm512_storeu_ps(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm512_add_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm512_sub_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm512_mul_ps(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(a.v), _mm512_castps_si512(_mm512_set1_ps(-0.0f)))));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(_mm512_fmadd_ps(a.v, b.v, c.v));
    }
};

template <>
struct Pack<double, 8> {
    using value_type = double;
    static constexpr int width = 8;
    __m512d v;
    MF_ALWAYS_INLINE Pack() noexcept : v(_mm512_setzero_pd()) {}
    MF_ALWAYS_INLINE explicit Pack(__m512d x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(_mm512_set1_pd(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(_mm512_loadu_pd(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[8];
        _mm512_storeu_pd(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(_mm512_add_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(_mm512_sub_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(_mm512_mul_pd(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(_mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(a.v), _mm512_castpd_si512(_mm512_set1_pd(-0.0)))));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(_mm512_fmadd_pd(a.v, b.v, c.v));
    }
};

#endif  // MF_SIMD_HAVE_AVX512

#if MF_SIMD_HAVE_NEON

template <>
struct Pack<float, 4> {
    using value_type = float;
    static constexpr int width = 4;
    float32x4_t v;
    MF_ALWAYS_INLINE Pack() noexcept : v(vdupq_n_f32(0.0f)) {}
    MF_ALWAYS_INLINE explicit Pack(float32x4_t x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(float x) noexcept {
        return Pack(vdupq_n_f32(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const float* p) noexcept {
        return Pack(vld1q_f32(p));
    }
    MF_ALWAYS_INLINE void store(float* p) const noexcept { vst1q_f32(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE float operator[](int i) const noexcept {
        float t[4];
        vst1q_f32(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(vaddq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(vsubq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(vmulq_f32(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(vnegq_f32(a.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(vfmaq_f32(c.v, a.v, b.v));  // c + a*b, fused
    }
};

template <>
struct Pack<double, 2> {
    using value_type = double;
    static constexpr int width = 2;
    float64x2_t v;
    MF_ALWAYS_INLINE Pack() noexcept : v(vdupq_n_f64(0.0)) {}
    MF_ALWAYS_INLINE explicit Pack(float64x2_t x) noexcept : v(x) {}
    [[nodiscard]] static MF_ALWAYS_INLINE Pack broadcast(double x) noexcept {
        return Pack(vdupq_n_f64(x));
    }
    [[nodiscard]] static MF_ALWAYS_INLINE Pack load(const double* p) noexcept {
        return Pack(vld1q_f64(p));
    }
    MF_ALWAYS_INLINE void store(double* p) const noexcept { vst1q_f64(p, v); }
    [[nodiscard]] MF_ALWAYS_INLINE double operator[](int i) const noexcept {
        double t[2];
        vst1q_f64(t, v);
        return t[i];
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator+(Pack a, Pack b) noexcept {
        return Pack(vaddq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a, Pack b) noexcept {
        return Pack(vsubq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator*(Pack a, Pack b) noexcept {
        return Pack(vmulq_f64(a.v, b.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack operator-(Pack a) noexcept {
        return Pack(vnegq_f64(a.v));
    }
    [[nodiscard]] friend MF_ALWAYS_INLINE Pack fma(Pack a, Pack b, Pack c) noexcept {
        return Pack(vfmaq_f64(c.v, a.v, b.v));  // c + a*b, fused
    }
};

#endif  // MF_SIMD_HAVE_NEON

}  // namespace mf::simd

namespace mf {

/// Packs are valid FPAN wire values: every gate in eft.hpp applies the
/// identical IEEE operation to each lane independently.
template <std::floating_point T, int W>
inline constexpr bool is_fpan_value_v<simd::Pack<T, W>> = true;

}  // namespace mf
