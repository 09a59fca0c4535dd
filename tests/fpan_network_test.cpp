// FPAN data structures: structural metrics, serialization, diagrams,
// well-formedness, and the paper-network inventory.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fpan/library.hpp"
#include "fpan/network.hpp"

namespace {

using namespace mf::fpan;

TEST(Network, SizeDepthOfFigure2) {
    const Network n = make_add_network(2);
    EXPECT_EQ(n.size(), 6);       // paper Figure 2: size 6
    EXPECT_LE(n.depth(), 5);      // AccurateDWPlusDW realization: depth 5
    EXPECT_EQ(n.num_discards(), 2);
    EXPECT_TRUE(n.well_formed());
    EXPECT_EQ(n.outputs.size(), 2u);
}

TEST(Network, SizeDepthOfFigure5) {
    const Network n = make_mul_network(2);
    EXPECT_EQ(n.size(), 3);   // paper Figure 5: size 3
    EXPECT_EQ(n.depth(), 3);  // depth 3: provably optimal
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, SweepNetworksMatchPaperScale) {
    // Reconstructions: within a handful of gates of the paper's SMT-minimized
    // networks (see DESIGN.md §2).
    EXPECT_EQ(make_add_network(3).size(), 18);  // paper: 14
    EXPECT_EQ(make_add_network(4).size(), 30);  // paper: 26
    EXPECT_LE(make_mul_network(3).size(), 15);  // paper: 12
    EXPECT_LE(make_mul_network(4).size(), 32);  // paper: 27
    for (const Network& n : paper_networks()) {
        EXPECT_TRUE(n.well_formed()) << n.name;
    }
}

TEST(Network, DepthIsLongestChain) {
    Network n;
    n.num_wires = 3;
    n.gates = {{GateKind::TwoSum, 0, 1}, {GateKind::TwoSum, 1, 2}, {GateKind::TwoSum, 0, 1}};
    n.outputs = {0};
    EXPECT_EQ(n.depth(), 3);
    Network par;
    par.num_wires = 4;
    par.gates = {{GateKind::TwoSum, 0, 1}, {GateKind::TwoSum, 2, 3}};
    par.outputs = {0};
    EXPECT_EQ(par.depth(), 1);  // independent gates run in parallel
}

TEST(Network, SerializeParseRoundTrip) {
    for (const Network& n : paper_networks()) {
        const Network back = Network::parse(n.serialize());
        EXPECT_EQ(back, n) << n.serialize();
    }
}

TEST(Network, SerializeFormat) {
    const Network n = make_mul_network(2);
    EXPECT_EQ(n.serialize(), "mul2 wires=4 out=0,2 : A(2,3) A(2,1) F(0,2)");
}

TEST(Network, GateListsArePinned) {
    // The exact gate lists of the shipped tables (mf/networks.hpp) and of
    // the no-renorm sweep the regression test checks. A table edit shows up
    // here as a diff, and must be re-verified before it ships.
    const std::vector<std::string> expected = {
        "add2 wires=4 out=0,3 : T(0,1) T(2,3) A(2,1) F(0,2) A(3,2) F(0,3)",
        "add3 wires=6 out=0,2,1 : T(0,1) T(2,3) T(4,5) T(3,5) T(4,3) T(1,4) T(2,1) "
        "T(0,2) T(3,5) T(4,3) T(1,4) T(2,1) T(3,5) T(4,3) T(1,4) F(0,2) F(2,1) F(1,4)",
        "add4 wires=8 out=0,2,1,4 : T(0,1) T(2,3) T(4,5) T(6,7) T(5,7) T(6,5) T(3,6) "
        "T(4,3) T(1,4) T(2,1) T(0,2) T(5,7) T(6,5) T(3,6) T(4,3) T(1,4) T(2,1) T(5,7) "
        "T(6,5) T(3,6) T(4,3) T(1,4) T(5,7) T(6,5) T(3,6) T(4,3) F(0,2) F(2,1) F(1,4) "
        "F(4,3)",
        "mul2 wires=4 out=0,2 : A(2,3) A(2,1) F(0,2)",
        "mul3 wires=9 out=0,2,3 : T(2,3) A(4,5) A(6,7) T(2,1) A(3,4) A(3,6) A(3,8) "
        "A(3,1) T(2,3) T(0,2) T(2,3) F(0,2) F(2,3)",
        "mul4 wires=16 out=0,2,6,7 : T(2,3) T(6,7) T(4,5) A(12,13) A(14,15) A(8,9) "
        "T(2,1) T(6,4) T(6,10) T(6,3) T(6,1) A(7,5) A(7,12) A(7,14) A(7,8) A(7,11) "
        "A(7,4) A(7,10) A(7,3) A(7,1) T(6,7) T(2,6) T(0,2) T(6,7) T(2,6) T(6,7) "
        "F(0,2) F(2,6) F(6,7)",
        "add3_no_renorm wires=6 out=0,2,1 : T(0,1) T(2,3) T(4,5) T(3,5) T(4,3) T(1,4) "
        "T(2,1) T(0,2) T(3,5) T(4,3) T(1,4) T(2,1) T(3,5) T(4,3) T(1,4)",
    };
    std::vector<std::string> got;
    for (const Network& n : paper_networks()) got.push_back(n.serialize());
    got.push_back(to_network("add3_no_renorm", add_sweep<3, 0>()).serialize());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
    // The TwoProd expansion step's wire order (mul_terms).
    const std::vector<std::string> layouts = {
        "p00 e00 p01 p10",
        "p00 e00 p01 p10 e01 e10 p02 p20 p11",
        "p00 e00 p01 p10 e01 e10 p02 p20 e02 e20 p11 e11 p03 p30 p12 p21",
    };
    for (int n = 2; n <= 4; ++n) {
        std::string joined;
        for (const std::string& l : mul_network_labels(n)) joined += (joined.empty() ? "" : " ") + l;
        EXPECT_EQ(joined, layouts[static_cast<std::size_t>(n - 2)]);
    }
}

TEST(Network, WellFormedRejects) {
    Network n;
    n.num_wires = 2;
    n.outputs = {0};
    n.gates = {{GateKind::TwoSum, 0, 0}};  // self-loop
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::TwoSum, 0, 5}};  // out of range
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::Add, 0, 1}, {GateKind::TwoSum, 0, 1}};  // dead wire use
    EXPECT_FALSE(n.well_formed());
    n.gates = {{GateKind::Add, 0, 1}};
    n.outputs = {1};  // output on dead wire
    EXPECT_FALSE(n.well_formed());
    n.outputs = {0, 0};  // duplicate outputs
    EXPECT_FALSE(n.well_formed());
    n.outputs = {};  // no outputs
    EXPECT_FALSE(n.well_formed());
    n.outputs = {0};
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, DiagramMentionsEveryGateAndLegend) {
    const Network n = make_add_network(2);
    const std::string d = n.diagram();
    EXPECT_NE(d.find("add2"), std::string::npos);
    EXPECT_NE(d.find("size 6"), std::string::npos);
    EXPECT_NE(d.find("legend"), std::string::npos);
    EXPECT_NE(d.find("> out"), std::string::npos);
}

TEST(Network, NaiveNetworkShape) {
    const Network n = make_naive_add_network(3);
    EXPECT_EQ(n.size(), 3);
    EXPECT_EQ(n.num_discards(), 3);
    EXPECT_TRUE(n.well_formed());
}

TEST(Network, MulLabelsMatchWireCounts) {
    for (int n = 2; n <= 4; ++n) {
        const auto labels = mul_network_labels(n);
        EXPECT_EQ(static_cast<int>(labels.size()), n * n);
        EXPECT_EQ(make_mul_network(n).num_wires, n * n);
    }
    EXPECT_THROW(mul_network_labels(5), std::invalid_argument);
}

}  // namespace
