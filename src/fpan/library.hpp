#pragma once
// The paper's six FPANs (Figures 2-7), and the two mixed expansion-scalar
// forms, as checkable Network data: copies of the compile-time tables in
// mf/networks.hpp that the add/mul kernels run, so the checked network is
// the shipped one. tests/fpan_consistency_test.cpp runs each copy through
// the independent executor and compares it with the kernels bit for bit.

#include <string>

#include "network.hpp"

namespace mf::fpan {

/// The runtime copy of a compile-time table.
template <std::size_t W, std::size_t G, std::size_t O>
[[nodiscard]] Network to_network(std::string name, const Table<W, G, O>& t) {
    return {std::move(name), static_cast<int>(W), {t.gates.begin(), t.gates.end()},
            {t.outputs.begin(), t.outputs.end()}};
}

/// Addition network for n-term expansions (n = 2, 3, 4): add_table<n>.
/// Wires 0..2n-1 carry the interleaved inputs [x0, y0, x1, y1, ...].
/// n = 2 is the provably optimal Figure-2 network.
[[nodiscard]] Network make_add_network(int n);

/// Accumulation network for commutative n-term multiplication (n = 2, 3, 4):
/// mul_table<n>. The caller performs the TwoProd expansion step; wires carry
/// the product terms in mul_terms<n> order.
[[nodiscard]] Network make_mul_network(int n);

/// Input wire labels of make_mul_network(n) ("p01", "e00", ...), for
/// diagrams and for building the wire vector from the TwoProd expansion
/// step.
[[nodiscard]] std::vector<std::string> mul_network_labels(int n);

/// Expansion + scalar addition (n = 2, 3, 4), the network of mf::add(x, T):
/// add_scalar_table<n>. Wires 0..n-1 carry x's limbs, wire n the scalar.
[[nodiscard]] Network make_add_scalar_network(int n);

/// Expansion * scalar accumulation (n = 2, 3, 4), the network of
/// mf::mul(x, T): mul_scalar_table<n>. The caller performs the TwoProds
/// (p_i, e_i) = TwoProd(x_i, y); wires carry [p0, p1, e0, p2, e1, ...,
/// p_{n-1}, e_{n-2}] (e_{n-1} is discarded, and p_{n-1} needs only the
/// rounded product).
[[nodiscard]] Network make_mul_scalar_network(int n);

/// The naive term-by-term sum of Eq. 9 -- intentionally WRONG (degrades to
/// machine precision); used to demonstrate that the checker rejects it.
[[nodiscard]] Network make_naive_add_network(int n);

/// All six paper networks, for tools and tests.
[[nodiscard]] std::vector<Network> paper_networks();

}  // namespace mf::fpan
