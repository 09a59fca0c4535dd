#pragma once
// The paper's floating-point accumulation networks (FPANs, §3, Figures 2-7)
// as compile-time gate tables: the one definition of every network the
// library ships. The add/mul kernels run a table through run(), which
// unrolls into straight-line code with every wire in a register;
// fpan::make_add_network / make_mul_network copy the same table into the
// runtime fpan::Network that the checker verifies and the diagrams draw;
// the ablations and regression tests run generator variants. A new network
// is one more table. Depends only on eft.hpp and the standard library.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "eft.hpp"

namespace mf::fpan {

enum class GateKind : std::uint8_t {
    Add,         ///< w[a] <- w[a] (+) w[b]; the error is discarded, wire b dies
    TwoSum,      ///< (w[a], w[b]) <- TwoSum(w[a], w[b]), any magnitudes
    FastTwoSum,  ///< (w[a], w[b]) <- FastTwoSum(w[a], w[b]); needs
                 ///< exponent(w[a]) >= exponent(w[b]) or either zero
};

struct Gate {
    GateKind kind;
    int a;  ///< first wire (receives the sum)
    int b;  ///< second wire (receives the error; dead after an Add gate)

    friend bool operator==(const Gate&, const Gate&) = default;
};

/// A network over W wires: G gates in execution order and O output wires,
/// most significant first.
template <std::size_t W, std::size_t G, std::size_t O>
struct Table {
    static constexpr std::size_t wires = W;
    std::array<Gate, G> gates;
    std::array<int, O> outputs;
};

namespace detail {

constexpr auto A = GateKind::Add;
constexpr auto T = GateKind::TwoSum;
constexpr auto F = GateKind::FastTwoSum;

constexpr std::size_t accumulate_size(int k, int n, int renorms) {
    int g = renorms * (n < k - 1 ? n : k - 1);
    for (int pass = 0; pass < n && pass < k - 1; ++pass) g += k - 1 - pass;
    return static_cast<std::size_t>(g);
}

/// A W-wire table: the gates `first`, then `rest` with its wire i renamed
/// order[i].
template <std::size_t W, std::size_t P, std::size_t K, std::size_t G, std::size_t O>
constexpr Table<W, P + G, O> then(const std::array<Gate, P>& first, const Table<K, G, O>& rest,
                                  const std::array<int, K>& order) {
    Table<W, P + G, O> t{};
    const auto wire = [&](int i) { return order[static_cast<std::size_t>(i)]; };
    for (std::size_t g = 0; g < P; ++g) t.gates[g] = first[g];
    for (std::size_t g = 0; g < G; ++g) {
        t.gates[P + g] = {rest.gates[g].kind, wire(rest.gates[g].a), wire(rest.gates[g].b)};
    }
    for (std::size_t o = 0; o < O; ++o) t.outputs[o] = wire(rest.outputs[o]);
    return t;
}

}  // namespace detail

/// Accumulation over K wires of any magnitudes: N bottom-up TwoSum
/// distillation passes (pass j leaves the rounded sum of wires j..K-1 on
/// wire j and moves the errors down), then RENORMS top-down FastTwoSum
/// passes over the leading N+1 wires. Outputs are wires 0..N-1.
///
/// RENORMS = 1 is the verified default: with no renorm pass the exhaustive
/// small-p checker finds rare 1-bit nonoverlap violations for n = 3
/// (invisible to 400k randomized double-precision trials), while one pass
/// survives 37M+ exhaustive cases; see tests/fpan_verify_test.cpp.
template <int K, int N, int RENORMS = 1>
constexpr auto accumulate_gates() {
    static_assert(N <= K);
    Table<K, detail::accumulate_size(K, N, RENORMS), N> t{};
    std::size_t g = 0;
    for (int pass = 0; pass < N; ++pass) {
        for (int i = K - 2; i >= pass; --i) t.gates[g++] = {detail::T, i, i + 1};
    }
    for (int r = 0; r < RENORMS; ++r) {
        for (int i = 0; i < N && i < K - 1; ++i) t.gates[g++] = {detail::F, i, i + 1};
    }
    for (int o = 0; o < N; ++o) t.outputs[static_cast<std::size_t>(o)] = o;
    return t;
}

/// N-term addition as pairing layer + accumulation (N >= 2), over the wires
/// [x0, y0, x1, y1, ...]. TwoSum(x_i, y_i) leaves s_i on wire 2i and e_i on
/// 2i+1; the accumulation takes them in expected-magnitude order
/// [s0, s1, e0, s2, e1, ..., s_{N-1}, e_{N-2}, e_{N-1}].
template <int N, int RENORMS = 1>
constexpr auto add_sweep() {
    std::array<Gate, N> pairing{};
    std::array<int, 2 * N> order{};
    for (int i = 0; i < N; ++i) {
        pairing[static_cast<std::size_t>(i)] = {detail::T, 2 * i, 2 * i + 1};
        order[static_cast<std::size_t>(i == 0 ? 0 : 2 * i - 1)] = 2 * i;              // s_i
        order[static_cast<std::size_t>(i < N - 1 ? 2 * i + 2 : 2 * N - 1)] = 2 * i + 1;  // e_i
    }
    return detail::then<2 * N>(pairing, accumulate_gates<2 * N, N, RENORMS>(), order);
}

/// Addition, wires [x0, y0, x1, y1, ...]. N = 2 is Figure 2's provably
/// optimal size-6 network in the gate order of the AccurateDWPlusDW
/// double-word algorithm (depth 5; the paper's realization has depth 4).
/// N = 3, 4 are sweeps reconstructed from the paper's description (18 and
/// 30 gates against its 14 and 26; DESIGN.md §2).
template <int N>
inline constexpr auto add_table = add_sweep<N>();

template <>
inline constexpr auto add_table<2> = Table<4, 6, 2>{{{
    {detail::T, 0, 1},  // (s0, e0) = TwoSum(x0, y0)
    {detail::T, 2, 3},  // (s1, e1) = TwoSum(x1, y1)
    {detail::A, 2, 1},  // c = s1 + e0
    {detail::F, 0, 2},  // (v0, v1) = FastTwoSum(s0, c)
    {detail::A, 3, 2},  // w = e1 + v1
    {detail::F, 0, 3},  // (z0, z1) = FastTwoSum(v0, w)
}}, {0, 3}};

/// Expansion + scalar addition (N >= 2), wires [x0, ..., x_{N-1}, y]: a
/// TwoSum chain carries y down the limbs (s_i stays on wire i, the carry on
/// wire N), then an (N+1)-wire accumulation.
template <int N>
inline constexpr auto add_scalar_table = [] {
    std::array<Gate, N> chain{};
    std::array<int, N + 1> order{};
    for (int i = 0; i < N; ++i) chain[static_cast<std::size_t>(i)] = {detail::T, i, N};
    for (int i = 0; i <= N; ++i) order[static_cast<std::size_t>(i)] = i;
    return detail::then<N + 1>(chain, accumulate_gates<N + 1, N>(), order);
}();

/// One input wire of a multiplication table: the rounded limb product
/// p_ij = RN(x_i * y_j), or (err) its TwoProd error e_ij.
struct Term {
    bool err;
    int i;
    int j;
};

/// The TwoProd expansion step of N-term multiplication (§4.2), i.e. the
/// mul tables' wire order. Discard optimization: a term below
/// exponent(x0) + exponent(y0) - N(p+1) cannot affect an N-term result, so
/// p_ij is kept for i+j <= N-1 and e_ij for i+j <= N-2: N^2 wires, not
/// 2N^2. Terms go by level i+j, symmetric pairs adjacent:
///   N = 2: p00 e00 p01 p10
///   N = 3: p00 e00 p01 p10 e01 e10 p02 p20 p11
///   N = 4: p00 e00 p01 p10 e01 e10 p02 p20 e02 e20 p11 e11 p03 p30 p12 p21
template <int N>
inline constexpr auto mul_terms = [] {
    std::array<Term, N * N> t{};
    std::size_t k = 0;
    for (int level = 0; level < N; ++level) {
        for (int i = 0; 2 * i <= level; ++i) {
            for (const bool err : {false, true}) {
                if (err && level > N - 2) continue;
                t[k++] = {err, i, level - i};
                if (2 * i < level) t[k++] = {err, level - i, i};
            }
        }
    }
    return t;
}();

/// Multiplication over mul_terms<N>. A commutativity layer first combines
/// the symmetric pairs (p_ij, p_ji), (e_ij, e_ji) with commutative gates, so
/// mul(x, y) and mul(y, x) are bit-identical (§4.2). N = 2 is Figure 5's
/// provably optimal network (size 3, depth 3); N = 3, 4 are reconstructions
/// with the same structure: the layer, level-pooled sums, an accumulation.
template <int N>
inline constexpr auto mul_table = nullptr;  // defined for N = 2, 3, 4

template <>
inline constexpr auto mul_table<2> = Table<4, 3, 2>{{{
    {detail::A, 2, 3},  // t = p01 + p10
    {detail::A, 2, 1},  // s = t + e00
    {detail::F, 0, 2},  // (z0, z1) = FastTwoSum(p00, s)
}}, {0, 2}};

template <>
inline constexpr auto mul_table<3> = detail::then<9>(
    std::array<Gate, 8>{{
        {detail::T, 2, 3},  // (t1, u1) = TwoSum(p01, p10): level 1; u1 -> level 2
        {detail::A, 4, 5},  // f1 = e01 + e10 (level 2; error discardable)
        {detail::A, 6, 7},  // g1 = p02 + p20 (level 2; error discardable)
        {detail::T, 2, 1},  // (w1, c1) = TwoSum(t1, e00): level-1 pool
        // Level-2 pool h = u1 + f1 + g1 + p11 + c1.
        {detail::A, 3, 4}, {detail::A, 3, 6}, {detail::A, 3, 8}, {detail::A, 3, 1},
    }},
    accumulate_gates<3, 3>(), std::array<int, 3>{0, 2, 3});  // over [p00, w1, h]

template <>
inline constexpr auto mul_table<4> = detail::then<16>(
    std::array<Gate, 20>{{
        {detail::T, 2, 3},    // (t1, u1) = TwoSum(p01, p10): level 1; u1 -> level 2
        {detail::T, 6, 7},    // (t2, u2) = TwoSum(p02, p20): level 2; u2 -> level 3
        {detail::T, 4, 5},    // (f1, g1) = TwoSum(e01, e10): level 2; g1 -> level 3
        {detail::A, 12, 13},  // q1 = p03 + p30 (level 3; errors discardable)
        {detail::A, 14, 15},  // q2 = p12 + p21
        {detail::A, 8, 9},    // q3 = e02 + e20
        {detail::T, 2, 1},    // (w1, c1) = TwoSum(t1, e00): level-1 pool; c1 -> level 2
        // Level-2 pool a = t2 + f1 + p11 + u1 + c1, keeping every error
        // d1..d4 (they land at level 3, above the discard threshold).
        {detail::T, 6, 4}, {detail::T, 6, 10}, {detail::T, 6, 3}, {detail::T, 6, 1},
        // Level-3 pool h = u2 + g1 + q1 + q2 + q3 + e11 + d1 + d2 + d3 + d4,
        // plain sums: their errors fall below the threshold.
        {detail::A, 7, 5}, {detail::A, 7, 12}, {detail::A, 7, 14}, {detail::A, 7, 8},
        {detail::A, 7, 11}, {detail::A, 7, 4}, {detail::A, 7, 10}, {detail::A, 7, 3},
        {detail::A, 7, 1},
    }},
    accumulate_gates<4, 4>(), std::array<int, 4>{0, 2, 6, 7});  // over [p00, w1, a, h]

/// Expansion * scalar multiplication (N >= 2), wires [p0, p1, e0, p2, e1,
/// ..., p_{N-1}, e_{N-2}] from (p_i, e_i) = TwoProd(x_i, y): p_i sits at
/// level i, e_i at level i+1 (the last error is discarded).
template <int N>
inline constexpr auto mul_scalar_table = accumulate_gates<2 * N - 1, N>();

namespace detail {

// `r` is deliberately not const: GCC 12's scalar replacement leaves a const
// aggregate temporary in memory, which blocks the unroll-and-jam of the
// GEMM micro-kernel's loop.
template <Gate g, FloatingPoint V, std::size_t K>
MF_ALWAYS_INLINE constexpr void step(V (&w)[K]) noexcept {
    static_assert(g.a >= 0 && g.a < static_cast<int>(K) && g.b >= 0 && g.b < static_cast<int>(K));
    if constexpr (g.kind == GateKind::Add) {
        w[g.a] = w[g.a] + w[g.b];
    } else if constexpr (g.kind == GateKind::TwoSum) {
        SumErr<V> r = two_sum(w[g.a], w[g.b]);
        w[g.a] = r.sum;
        w[g.b] = r.err;
    } else {
        SumErr<V> r = fast_two_sum(w[g.a], w[g.b]);
        w[g.a] = r.sum;
        w[g.b] = r.err;
    }
}

template <auto Net, FloatingPoint V, std::size_t K, std::size_t... G, std::size_t... O>
MF_ALWAYS_INLINE constexpr std::array<V, sizeof...(O)> run(V (&w)[K], std::index_sequence<G...>,
                                                          std::index_sequence<O...>) noexcept {
    (step<Net.gates[G]>(w), ...);
    return {w[Net.outputs[O]]...};
}

}  // namespace detail

/// Applies table `Net` to the wires `w` in place and returns its outputs,
/// most significant first. The gate fold unrolls at compile time, so every
/// wire index is a constant.
template <auto Net, FloatingPoint V, std::size_t K>
MF_ALWAYS_INLINE constexpr std::array<V, Net.outputs.size()> run(V (&w)[K]) noexcept {
    static_assert(K == Net.wires, "wire array does not match the table");
    return detail::run<Net>(w, std::make_index_sequence<Net.gates.size()>{},
                            std::make_index_sequence<Net.outputs.size()>{});
}

}  // namespace mf::fpan
