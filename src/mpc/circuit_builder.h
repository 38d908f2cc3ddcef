// Circuit construction with constant folding and an arithmetic block library.
//
// The builder plays the role of the SFDL compiler in the paper's FairplayMP
// stack: high-level operations (mod-2^k addition, comparison against public
// thresholds, population count, multiplexing) are lowered to XOR/AND/NOT
// gates. Constants are folded at build time — AND with a known 0 disappears,
// XOR with a known 1 becomes NOT, etc. — which is what makes comparisons
// against *public* thresholds cheap, mirroring a circuit compiler's constant
// propagation.
//
// Multi-bit values are little-endian WireVecs (bit 0 first).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "mpc/circuit.h"

namespace eppi::mpc {

class CircuitBuilder {
 public:
  CircuitBuilder();

  // Pre-sizes the gate storage for about `wires` wires, so a generator that
  // can bound its circuit from its spec grows it once.
  void reserve(std::size_t wires);

  // --- wires -------------------------------------------------------------
  Wire input_bit(std::uint32_t party);
  WireVec input_bits(std::uint32_t party, unsigned width);
  Wire zero();
  Wire one();
  Wire constant(bool value) { return value ? one() : zero(); }
  WireVec constant_bits(std::uint64_t value, unsigned width);

  // --- single-bit gates (constant-folding) ---------------------------------
  Wire Xor(Wire a, Wire b);
  Wire And(Wire a, Wire b);
  Wire Not(Wire a);
  Wire Or(Wire a, Wire b);
  Wire Mux(Wire sel, Wire if_true, Wire if_false);

  // --- multi-bit blocks ----------------------------------------------------
  // a ^ b, elementwise (equal widths).
  WireVec xor_vec(const WireVec& a, const WireVec& b);
  // a + b truncated to max(width(a), width(b)) bits (mod 2^w).
  WireVec add_trunc(const WireVec& a, const WireVec& b);
  // a + b with full carry, width = max + 1.
  WireVec add_expand(const WireVec& a, const WireVec& b);
  // (a + b) mod q for arbitrary public q (conditional subtract). Widths must
  // be ring widths for q.
  WireVec add_mod(const WireVec& a, const WireVec& b, std::uint64_t q);
  // Unsigned comparisons.
  Wire lt(const WireVec& a, const WireVec& b);           // a < b
  Wire ge(const WireVec& a, const WireVec& b);           // a >= b
  Wire lt_const(const WireVec& a, std::uint64_t t);      // a < t
  Wire ge_const(const WireVec& a, std::uint64_t t);      // a >= t
  Wire eq_const(const WireVec& a, std::uint64_t t);      // a == t
  // Number of set bits among `bits` (width = ceil(log2(n+1))).
  WireVec popcount(std::span<const Wire> bits);
  // Sum of multi-bit values with expanding width (adder tree).
  WireVec sum_tree(std::vector<WireVec> values);
  // sel ? if_true : if_false, elementwise (equal widths).
  WireVec mux_vec(Wire sel, const WireVec& a, const WireVec& b);
  // Zero-extend to `width`.
  WireVec zext(WireVec v, unsigned width);

  // --- outputs -------------------------------------------------------------
  void output(Wire w);
  void output_vec(const WireVec& v);

  // Finalizes the circuit — compiles its layer schedule (see
  // Circuit::local_layer) — and returns it; the builder must not be reused.
  Circuit take();

  const CircuitStats& stats() const noexcept { return circuit_.stats_; }

 private:
  Wire append(GateOp op, Wire a, Wire b);
  // Build-time constant value of a wire, if known.
  std::optional<bool> const_of(Wire w) const;
  // Appends a + b over `width` bits to `out`, missing high bits of a or b
  // read as zero; the carry out is the last of the width + 1 wires.
  void add_expand_into(std::span<const Wire> a, std::span<const Wire> b,
                       unsigned width, WireVec& out);
  // sum_tree over the values wires[ends[k - 1], ends[k]) (ends[-1] = 0).
  WireVec sum_runs(WireVec wires, std::vector<std::size_t> ends);

  // Layer-schedule slot of a non-input gate (see Circuit::local_layer).
  static std::size_t slot_of(GateOp op, std::uint32_t layer) noexcept {
    return op == GateOp::kAnd ? 2 * std::size_t{layer} - 1
                              : 2 * std::size_t{layer};
  }

  static constexpr Wire kNoWire = ~Wire{0};

  Circuit circuit_;
  std::vector<std::uint32_t> layers_;      // AND layer per wire
  std::vector<std::uint32_t> slot_sizes_;  // gates per schedule slot
  // Folding leaves at most these two constant wires in a circuit.
  Wire zero_wire_ = kNoWire;
  Wire one_wire_ = kNoWire;
};

// Helper: bits needed to hold values up to `max_value`.
unsigned bit_width_for(std::uint64_t max_value) noexcept;

}  // namespace eppi::mpc
