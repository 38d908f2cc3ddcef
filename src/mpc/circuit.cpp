#include "mpc/circuit.h"

#include <algorithm>

#include "common/error.h"

namespace eppi::mpc {

std::uint32_t Circuit::input_owner(Wire w) const {
  require(w < gates_.size() && gates_[w].op == GateOp::kInput,
          "Circuit: wire is not an input");
  return gates_[w].a;
}

WireVec Circuit::inputs_of(std::uint32_t party) const {
  WireVec result;
  for (const Wire w : inputs_) {
    if (gates_[w].a == party) result.push_back(w);
  }
  return result;
}

CircuitStats combined_stats(std::span<const CircuitGroup> groups,
                            const Circuit* tail) {
  CircuitStats total;
  for (const CircuitGroup& g : groups) {
    const CircuitStats& s = g.circuit->stats();
    total.and_gates += s.and_gates * g.lanes;
    total.xor_gates += s.xor_gates * g.lanes;
    total.not_gates += s.not_gates * g.lanes;
    total.input_wires += s.input_wires * g.lanes;
    total.and_depth = std::max(total.and_depth, s.and_depth);
  }
  if (tail != nullptr) {
    const CircuitStats& s = tail->stats();
    total.and_gates += s.and_gates;
    total.xor_gates += s.xor_gates;
    total.not_gates += s.not_gates;
    total.and_depth += s.and_depth;
  }
  return total;
}

}  // namespace eppi::mpc
