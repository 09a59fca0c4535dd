#include "library.hpp"

#include <stdexcept>

namespace mf::fpan {

namespace {

template <int N>
std::vector<std::string> labels() {
    std::vector<std::string> out;
    for (const Term& t : mul_terms<N>) {
        out.push_back((t.err ? "e" : "p") + std::to_string(t.i) + std::to_string(t.j));
    }
    return out;
}

void require_paper_size(int n, const char* what) {
    if (n < 2 || n > 4) throw std::invalid_argument(std::string(what) + ": n must be 2..4");
}

}  // namespace

Network make_add_network(int n) {
    require_paper_size(n, "make_add_network");
    const std::string name = "add" + std::to_string(n);
    if (n == 2) return to_network(name, add_table<2>);
    if (n == 3) return to_network(name, add_table<3>);
    return to_network(name, add_table<4>);
}

Network make_mul_network(int n) {
    require_paper_size(n, "make_mul_network");
    const std::string name = "mul" + std::to_string(n);
    if (n == 2) return to_network(name, mul_table<2>);
    if (n == 3) return to_network(name, mul_table<3>);
    return to_network(name, mul_table<4>);
}

Network make_add_scalar_network(int n) {
    require_paper_size(n, "make_add_scalar_network");
    const std::string name = "add_scalar" + std::to_string(n);
    if (n == 2) return to_network(name, add_scalar_table<2>);
    if (n == 3) return to_network(name, add_scalar_table<3>);
    return to_network(name, add_scalar_table<4>);
}

Network make_mul_scalar_network(int n) {
    require_paper_size(n, "make_mul_scalar_network");
    const std::string name = "mul_scalar" + std::to_string(n);
    if (n == 2) return to_network(name, mul_scalar_table<2>);
    if (n == 3) return to_network(name, mul_scalar_table<3>);
    return to_network(name, mul_scalar_table<4>);
}

std::vector<std::string> mul_network_labels(int n) {
    require_paper_size(n, "mul_network_labels");
    if (n == 2) return labels<2>();
    if (n == 3) return labels<3>();
    return labels<4>();
}

Network make_naive_add_network(int n) {
    Network net;
    net.name = "naive_add" + std::to_string(n) + "_Eq9";
    net.num_wires = 2 * n;
    for (int i = 0; i < n; ++i) {
        net.gates.push_back({GateKind::Add, 2 * i, 2 * i + 1});
        net.outputs.push_back(2 * i);
    }
    return net;
}

std::vector<Network> paper_networks() {
    return {make_add_network(2), make_add_network(3), make_add_network(4),
            make_mul_network(2), make_mul_network(3), make_mul_network(4)};
}

}  // namespace mf::fpan
