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
//
// load_aos / store_aos (at the end) move W array-of-structs (AoS) N-limb
// elements -- W * N contiguous scalars, element j's limb k at scalar
// j * N + k -- into N limb packs and back. The x86 specializations do it in
// registers: N full-width loads, one compile-time lane permute per output
// register (their permute member), N full-width stores. Other packs copy
// lanes. transpose turns W packs into their W x W transpose with the same
// permute member, in log2(W) butterfly steps.

#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <utility>

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

/// Pack width the kernels of this build run at by default for base type T:
/// lanes per native register, 1 without a SIMD ISA.
template <std::floating_point T>
inline constexpr int native_width =
    native_bytes == 0 ? 1 : native_bytes / static_cast<int>(sizeof(T));

namespace detail {

/// Lane map of one output register of an AoS transpose of W N-limb
/// elements. src(i) is the scalar that lane i takes, counted across the N
/// input registers laid end to end (register src / W, lane src % W).
///  * load (Store = false): limb register O, lane i is limb O of element i,
///    scalar i * N + O of the AoS run;
///  * store (Store = true): AoS register O, lane i is run scalar q = O*W + i,
///    limb q % N of element q / N, i.e. lane q / N of limb register q % N.
template <int W, int N, bool Store, int O>
struct AosMap {
    [[nodiscard]] static constexpr int src(int i) noexcept {
        const int q = O * W + i;
        return Store ? (q % N) * W + q / N : i * N + O;
    }
};

/// Permute indices of the lanes of Map that draw from input registers
/// [R0, R0 + Span): the source's offset from register R0's lane 0. Lanes
/// drawing from elsewhere hold 0; a blend or merge mask overwrites them.
template <typename Map, int W, int R0, int Span, typename I>
inline constexpr std::array<I, W> lane_index = [] {
    std::array<I, W> idx{};
    for (int i = 0; i < W; ++i) {
        const int off = Map::src(i) - R0 * W;
        idx[i] = off >= 0 && off < Span * W ? static_cast<I>(off) : I(0);
    }
    return idx;
}();

/// Bit i set when lane i of Map draws from input registers [R0, R0 + Span).
template <typename Map, int W, int R0, int Span>
inline constexpr unsigned lane_mask = [] {
    unsigned m = 0;
    for (int i = 0; i < W; ++i) {
        const int off = Map::src(i) - R0 * W;
        if (off >= 0 && off < Span * W) m |= 1u << i;
    }
    return m;
}();

/// Address of scalar `s` of type T in the AoS run at p, as bytes: the run
/// spans many MultiFloat objects, so it is addressed through its object
/// representation, never by T* arithmetic across elements.
template <typename T>
[[nodiscard]] MF_ALWAYS_INLINE const unsigned char* aos_at(const void* p, int s) noexcept {
    return static_cast<const unsigned char*>(p) + static_cast<std::size_t>(s) * sizeof(T);
}
template <typename T>
[[nodiscard]] MF_ALWAYS_INLINE unsigned char* aos_at(void* p, int s) noexcept {
    return static_cast<unsigned char*>(p) + static_cast<std::size_t>(s) * sizeof(T);
}

}  // namespace detail

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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// shufps or unpck when each half (or each parity) of the lanes comes
    /// from one register, else three shufps.
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        constexpr int f0 = Map::src(0), f1 = Map::src(1), f2 = Map::src(2), f3 = Map::src(3);
        const __m128 a = s[f0 / 4].v, b = s[f1 / 4].v, c = s[f2 / 4].v, d = s[f3 / 4].v;
        if constexpr (f0 / 4 == f1 / 4 && f2 / 4 == f3 / 4) {
            return Pack(_mm_shuffle_ps(a, c, _MM_SHUFFLE(f3 % 4, f2 % 4, f1 % 4, f0 % 4)));
        } else if constexpr (f0 / 4 == f2 / 4 && f1 / 4 == f3 / 4 && f0 % 4 == f1 % 4 &&
                             f2 % 4 == f3 % 4 && f2 % 4 == f0 % 4 + 1 && f0 % 2 == 0) {
            return Pack(f0 % 4 == 0 ? _mm_unpacklo_ps(a, b) : _mm_unpackhi_ps(a, b));
        } else {
            const __m128 lo = _mm_shuffle_ps(a, b, _MM_SHUFFLE(f1 % 4, f1 % 4, f0 % 4, f0 % 4));
            const __m128 hi = _mm_shuffle_ps(c, d, _MM_SHUFFLE(f3 % 4, f3 % 4, f2 % 4, f2 % 4));
            return Pack(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
        }
    }
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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// shufpd.
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        constexpr int f0 = Map::src(0), f1 = Map::src(1);
        return Pack(_mm_shuffle_pd(s[f0 / 2].v, s[f1 / 2].v, (f0 % 2) | (f1 % 2) << 1));
    }
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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// vpermps per register the lanes draw from, merged by blends.
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        const auto from = [&]<int R>() {
            constexpr std::array<std::int32_t, 8> idx =
                detail::lane_index<Map, 8, R, 1, std::int32_t>;
            return _mm256_permutevar8x32_ps(
                s[R].v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx.data())));
        };
        constexpr int first = Map::src(0) / 8;
        __m256 r = from.template operator()<first>();
        [&]<int... R>(std::integer_sequence<int, R...>) {
            ([&] {
                constexpr unsigned mask = detail::lane_mask<Map, 8, R, 1>;
                if constexpr (R != first && mask != 0) {
                    r = _mm256_blend_ps(r, from.template operator()<R>(), mask);
                }
            }(), ...);
        }(std::make_integer_sequence<int, static_cast<int>(M)>{});
        return Pack(r);
    }
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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// vpermpd per register the lanes draw from, merged by blends.
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        const auto from = [&]<int R>() {
            constexpr std::array<int, 4> idx = detail::lane_index<Map, 4, R, 1, int>;
            return _mm256_permute4x64_pd(s[R].v,
                                         idx[0] | idx[1] << 2 | idx[2] << 4 | idx[3] << 6);
        };
        constexpr int first = Map::src(0) / 4;
        __m256d r = from.template operator()<first>();
        [&]<int... R>(std::integer_sequence<int, R...>) {
            ([&] {
                constexpr unsigned mask = detail::lane_mask<Map, 4, R, 1>;
                if constexpr (R != first && mask != 0) {
                    r = _mm256_blend_pd(r, from.template operator()<R>(), mask);
                }
            }(), ...);
        }(std::make_integer_sequence<int, static_cast<int>(M)>{});
        return Pack(r);
    }
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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// vpermt2ps per pair of registers the lanes draw from, merged by a
    /// masked blend (a masked vpermps for an odd last register).
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        constexpr int regs = static_cast<int>(M);
        // Lanes drawing from registers [2Q, 2Q + span), and their indices.
        const auto span = [](int q) { return 2 * q + 1 < regs ? 2 : 1; };
        const auto index = [&]<int Q>() {
            constexpr std::array<std::int32_t, 16> idx =
                detail::lane_index<Map, 16, 2 * Q, span(Q), std::int32_t>;
            return _mm512_loadu_si512(idx.data());
        };
        constexpr int first = Map::src(0) / 16 / 2;
        auto r = _mm512_permutex2var_ps(s[2 * first].v, index.template operator()<first>(),
                                        s[2 * first + span(first) - 1].v);
        [&]<int... Q>(std::integer_sequence<int, Q...>) {
            ([&] {
                constexpr auto mask =
                    static_cast<__mmask16>(detail::lane_mask<Map, 16, 2 * Q, span(Q)>);
                if constexpr (Q != first && mask != 0) {
                    const __m512i iv = index.template operator()<Q>();
                    if constexpr (span(Q) == 2) {
                        r = _mm512_mask_blend_ps(
                            mask, r, _mm512_permutex2var_ps(s[2 * Q].v, iv, s[2 * Q + 1].v));
                    } else {
                        r = _mm512_mask_permutexvar_ps(r, mask, iv, s[2 * Q].v);
                    }
                }
            }(), ...);
        }(std::make_integer_sequence<int, (regs + 1) / 2>{});
        return Pack(r);
    }
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
    /// Lane i <- scalar Map::src(i) of the registers s laid end to end: one
    /// vpermt2pd per pair of registers the lanes draw from, merged by a
    /// masked blend (a masked vpermpd for an odd last register).
    template <typename Map, std::size_t M>
    [[nodiscard]] static MF_ALWAYS_INLINE Pack permute(const std::array<Pack, M>& s) noexcept {
        constexpr int regs = static_cast<int>(M);
        // Lanes drawing from registers [2Q, 2Q + span), and their indices.
        const auto span = [](int q) { return 2 * q + 1 < regs ? 2 : 1; };
        const auto index = [&]<int Q>() {
            constexpr std::array<std::int64_t, 8> idx =
                detail::lane_index<Map, 8, 2 * Q, span(Q), std::int64_t>;
            return _mm512_loadu_si512(idx.data());
        };
        constexpr int first = Map::src(0) / 8 / 2;
        auto r = _mm512_permutex2var_pd(s[2 * first].v, index.template operator()<first>(),
                                        s[2 * first + span(first) - 1].v);
        [&]<int... Q>(std::integer_sequence<int, Q...>) {
            ([&] {
                constexpr auto mask =
                    static_cast<__mmask8>(detail::lane_mask<Map, 8, 2 * Q, span(Q)>);
                if constexpr (Q != first && mask != 0) {
                    const __m512i iv = index.template operator()<Q>();
                    if constexpr (span(Q) == 2) {
                        r = _mm512_mask_blend_pd(
                            mask, r, _mm512_permutex2var_pd(s[2 * Q].v, iv, s[2 * Q + 1].v));
                    } else {
                        r = _mm512_mask_permutexvar_pd(r, mask, iv, s[2 * Q].v);
                    }
                }
            }(), ...);
        }(std::make_integer_sequence<int, (regs + 1) / 2>{});
        return Pack(r);
    }
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

/// Packs with a compile-time lane permute (the x86 specializations), which
/// transpose AoS elements in registers.
template <typename P>
concept LanePermute = requires(const std::array<P, 2>& s) {
    { P::template permute<detail::AosMap<P::width, 2, false, 0>>(s) } -> std::same_as<P>;
};

/// The N limb packs of the W = P::width N-limb AoS elements at p: W * N
/// contiguous scalars, element j's limb k at scalar j * N + k.
template <typename P, int N>
[[nodiscard]] MF_ALWAYS_INLINE std::array<P, N> load_aos(const void* p) noexcept {
    using T = typename P::value_type;
    constexpr int W = P::width;
    std::array<P, N> r;
    if constexpr (LanePermute<P>) {
        // N full-width loads; limb pack K is one lane permute of them.
        std::array<P, N> in;
        for (int q = 0; q < N; ++q) {
            in[q] = P::load(reinterpret_cast<const T*>(detail::aos_at<T>(p, q * W)));
        }
        if constexpr (N == 1) {
            r = in;
        } else {
            [&]<int... K>(std::integer_sequence<int, K...>) {
                ((r[K] = P::template permute<detail::AosMap<W, N, false, K>>(in)), ...);
            }(std::make_integer_sequence<int, N>{});
        }
    } else {
        // Lane copies through a W-scalar buffer: the portable template, and
        // NEON, whose vld2q-vld4q structure loads are not yet built and
        // tested on an AArch64 target.
        T buf[W];
        for (int k = 0; k < N; ++k) {
            for (int j = 0; j < W; ++j) {
                std::memcpy(&buf[j], detail::aos_at<T>(p, j * N + k), sizeof(T));
            }
            r[k] = P::load(buf);
        }
    }
    return r;
}

/// Inverse of load_aos: writes exactly the W * N scalars at p.
template <typename P, int N>
MF_ALWAYS_INLINE void store_aos(const std::array<P, N>& v, void* p) noexcept {
    using T = typename P::value_type;
    constexpr int W = P::width;
    if constexpr (LanePermute<P>) {
        // AoS register Q is one lane permute of the limb packs; N full-width
        // stores.
        if constexpr (N == 1) {
            v[0].store(reinterpret_cast<T*>(p));
        } else {
            [&]<int... Q>(std::integer_sequence<int, Q...>) {
                (P::template permute<detail::AosMap<W, N, true, Q>>(v).store(
                     reinterpret_cast<T*>(detail::aos_at<T>(p, Q * W))),
                 ...);
            }(std::make_integer_sequence<int, N>{});
        }
    } else {
        T buf[W];
        for (int k = 0; k < N; ++k) {
            v[k].store(buf);
            for (int j = 0; j < W; ++j) {
                std::memcpy(detail::aos_at<T>(p, j * N + k), &buf[j], sizeof(T));
            }
        }
    }
}

namespace detail {

/// Lane map of one butterfly step of a square transpose, over the register
/// pair (s[r], s[r + H]) laid end to end (r without bit H): the step swaps
/// bit H between register and lane index. The new s[r] (Hi = false) keeps
/// its lanes without bit H and takes the others from s[r + H]; the new
/// s[r + H] (Hi = true) the other way round.
template <int W, int H, bool Hi>
struct SwapMap {
    [[nodiscard]] static constexpr int src(int j) noexcept {
        if (Hi) return (j & H) ? W + j : j + H;
        return (j & H) ? W + j - H : j;
    }
};

}  // namespace detail

/// Square transpose of W = P::width packs: lane j of result r is lane r of
/// s[j]. Permute packs run log2(W) butterfly steps of two-register
/// permutes (one vpermt2pd/ps each on AVX-512); other packs copy lanes.
template <typename P>
[[nodiscard]] MF_ALWAYS_INLINE std::array<P, P::width> transpose(std::array<P, P::width> s) noexcept {
    using T = typename P::value_type;
    constexpr int W = P::width;
    if constexpr (W == 1) {
        return s;
    } else if constexpr (LanePermute<P>) {
        const auto step = [&]<int H>() {
            for (int r = 0; r < W; ++r) {
                if (r & H) continue;
                const std::array<P, 2> pair{s[r], s[r + H]};
                s[r] = P::template permute<detail::SwapMap<W, H, false>>(pair);
                s[r + H] = P::template permute<detail::SwapMap<W, H, true>>(pair);
            }
        };
        [&]<int... L>(std::integer_sequence<int, L...>) {
            (step.template operator()<(W >> (L + 1))>(), ...);
        }(std::make_integer_sequence<int, std::bit_width(static_cast<unsigned>(W)) - 1>{});
        return s;
    } else {
        std::array<P, W> r;
        T buf[W];
        for (int j = 0; j < W; ++j) {
            for (int i = 0; i < W; ++i) buf[i] = s[i][j];
            r[j] = P::load(buf);
        }
        return r;
    }
}

}  // namespace mf::simd

namespace mf {

/// Packs are valid FPAN wire values: every gate in eft.hpp applies the
/// identical IEEE operation to each lane independently.
template <std::floating_point T, int W>
inline constexpr bool is_fpan_value_v<simd::Pack<T, W>> = true;

}  // namespace mf
