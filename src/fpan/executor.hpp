#pragma once
// Generic FPAN executor: runs a Network over any arithmetic value type that
// models round-to-nearest-even addition/subtraction (double, float,
// soft::SoftFloat, ...). The TwoSum / FastTwoSum gate bodies are the textbook
// algorithms expressed through the type's own rounded +/- operators, written
// independently of the kernels' compile-time runner (mf/networks.hpp), so
// the executor is the reference the consistency tests compare the kernels
// against.

#include <cassert>
#include <span>

#include "network.hpp"

namespace mf::fpan {

/// Models a rounded arithmetic value usable on FPAN wires.
template <typename V>
concept WireValue = requires(V a, V b) {
    { a + b } -> std::convertible_to<V>;
    { a - b } -> std::convertible_to<V>;
};

/// Execute `net` in place over `wires` (size must equal net.num_wires).
/// After the call, the wires listed in net.outputs hold the result.
template <WireValue V>
void execute(const Network& net, std::span<V> wires) {
    assert(static_cast<int>(wires.size()) == net.num_wires);
    for (const Gate& g : net.gates) {
        V& x = wires[static_cast<std::size_t>(g.a)];
        V& y = wires[static_cast<std::size_t>(g.b)];
        switch (g.kind) {
            case GateKind::Add: {
                x = x + y;
                y = y - y;  // dead wire; value-typed zero
                break;
            }
            case GateKind::TwoSum: {
                const V s = x + y;
                const V x_eff = s - y;
                const V y_eff = s - x_eff;
                const V dx = x - x_eff;
                const V dy = y - y_eff;
                x = s;
                y = dx + dy;
                break;
            }
            case GateKind::FastTwoSum: {
                const V s = x + y;
                const V y_eff = s - x;
                x = s;
                y = y - y_eff;
                break;
            }
        }
    }
}

}  // namespace mf::fpan
