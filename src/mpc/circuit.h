// Boolean circuit representation for secure multi-party computation.
//
// This substitutes for FairplayMP's SFDL-compiled Boolean circuits (paper
// §IV-B.2): protocol functionality is expressed as a DAG of XOR / AND / NOT
// gates over party-owned input wires. Circuit *size* (gate count) is the
// paper's own scalability metric for Fig. 6b, so the representation tracks
// gate counts and the AND-depth (which determines GMW round complexity).
//
// Wires are dense indices; gate i's output is wire i. Construction is append
// -only, so the gate list is always topologically ordered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace eppi::mpc {

using Wire = std::uint32_t;
using WireVec = std::vector<Wire>;

enum class GateOp : std::uint8_t {
  kInput,      // party-owned input bit (operand a = party index)
  kConstZero,
  kConstOne,
  kXor,        // a ^ b
  kAnd,        // a & b  (the only gate requiring secure communication)
  kNot,        // !a
};

struct Gate {
  GateOp op;
  Wire a = 0;
  Wire b = 0;
};

struct CircuitStats {
  std::uint64_t and_gates = 0;
  std::uint64_t xor_gates = 0;
  std::uint64_t not_gates = 0;
  std::uint64_t input_wires = 0;
  std::uint64_t and_depth = 0;  // number of GMW communication layers

  // "Circuit size" in the Fig. 6b sense: all secure gates. XOR/NOT are free
  // in GMW but FairplayMP's BMR counts every gate, so we report both views.
  std::uint64_t total_gates() const noexcept {
    return and_gates + xor_gates + not_gates;
  }
};

class Circuit {
 public:
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  const WireVec& inputs() const noexcept { return inputs_; }
  const WireVec& outputs() const noexcept { return outputs_; }

  // Owning party (index into the MPC session's party list) of input wire w.
  std::uint32_t input_owner(Wire w) const;

  // Input wires owned by one party, in declaration order.
  WireVec inputs_of(std::uint32_t party) const;

  std::size_t n_wires() const noexcept { return gates_.size(); }
  const CircuitStats& stats() const noexcept { return stats_; }

  // The layer schedule, compiled once by CircuitBuilder::take(). A wire's
  // AND layer is 0 when it is computable locally from the inputs and r when
  // it is available after the r-th GMW communication round. With d the
  // AND-depth, GMW evaluates local_layer(0), and_layer(1), local_layer(1),
  // ..., and_layer(d), local_layer(d): local_layer(r) holds the XOR, NOT and
  // constant gates of layer r, and_layer(r) (1 <= r <= d) the AND gates
  // opened in round r. Both are in wire order; Beaver triples are assigned
  // to AND gates in schedule order. Input wires appear in neither.
  std::span<const Wire> local_layer(std::uint32_t r) const noexcept {
    return slot(2 * std::size_t{r});
  }
  std::span<const Wire> and_layer(std::uint32_t r) const noexcept {
    return r == 0 ? std::span<const Wire>{} : slot(2 * std::size_t{r} - 1);
  }

 private:
  friend class CircuitBuilder;

  // Slot s of the schedule: local_layer(s / 2) for even s, and_layer
  // ((s + 1) / 2) for odd s.
  std::span<const Wire> slot(std::size_t s) const noexcept {
    if (s + 1 >= slot_offsets_.size()) return {};
    return std::span<const Wire>(schedule_).subspan(
        slot_offsets_[s], slot_offsets_[s + 1] - slot_offsets_[s]);
  }

  std::vector<Gate> gates_;
  WireVec inputs_;
  WireVec outputs_;
  CircuitStats stats_;
  // Every non-input wire, slot by slot; slot s is
  // [slot_offsets_[s], slot_offsets_[s + 1]).
  WireVec schedule_;
  std::vector<std::uint32_t> slot_offsets_;
};

// A template circuit evaluated on `lanes` independent instances at once, one
// per bit lane: lane l of every wire belongs to instance l. A scalar circuit
// is one group with one lane.
struct CircuitGroup {
  const Circuit* circuit = nullptr;
  std::uint64_t lanes = 1;
};

// Totals of a lane program: the groups' gates and input wires times their
// lanes, then the tail's gates (its input wires take the groups' outputs,
// so they are not inputs of the program). The AND-depth is the deepest
// group's plus the tail's, since the tail starts when every group is done.
CircuitStats combined_stats(std::span<const CircuitGroup> groups,
                            const Circuit* tail = nullptr);

}  // namespace eppi::mpc
