#pragma once
// Floating-point accumulation networks (FPANs) as runtime data.
//
// An FPAN (paper §3) is a branch-free algorithm given by a fixed sequence of
// gates applied to a fixed set of wires. The gate type and the shipped
// networks are defined once, as compile-time tables, in mf/networks.hpp;
// a Network is the runtime form of such a table (make_add_network and
// make_mul_network copy one in) or of a candidate the search builds.
//
// Keeping networks as data lets us (1) verify them with the empirical
// checker over SoftFloat/BigFloat, (2) search for new ones by simulated
// annealing, (3) print the paper's Figure 2-7 style diagrams, and (4) run
// the shipped tables through the independent executor (executor.hpp) and
// compare with the kernels bit for bit (tests/fpan_consistency_test.cpp).

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "mf/networks.hpp"

namespace mf::fpan {

struct Network {
    std::string name;
    int num_wires = 0;
    std::vector<Gate> gates;
    std::vector<int> outputs;  ///< wire indices, most significant first

    /// Total number of gates (the paper's "size").
    [[nodiscard]] int size() const noexcept { return static_cast<int>(gates.size()); }

    /// Longest gate chain from any input to any output (the paper's "depth").
    [[nodiscard]] int depth() const noexcept;

    /// Count of error-discarding Add gates.
    [[nodiscard]] int num_discards() const noexcept;

    /// Structural sanity: wire indices in range, outputs distinct and live.
    [[nodiscard]] bool well_formed() const noexcept;

    /// Compact single-line text form:
    ///   "name wires=W out=o1,o2 : T(a,b) F(a,b) A(a,b) ..."
    [[nodiscard]] std::string serialize() const;
    static Network parse(const std::string& text);

    /// Multi-line ASCII art in the style of the paper's figures.
    [[nodiscard]] std::string diagram(std::span<const std::string> wire_labels = {}) const;

    friend bool operator==(const Network&, const Network&) = default;
};

std::ostream& operator<<(std::ostream& os, const Network& n);

}  // namespace mf::fpan
