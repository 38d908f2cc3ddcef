#include "mpc/circuit_builder.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/error.h"

namespace eppi::mpc {

unsigned bit_width_for(std::uint64_t max_value) noexcept {
  return max_value == 0 ? 1u
                        : static_cast<unsigned>(std::bit_width(max_value));
}

CircuitBuilder::CircuitBuilder() = default;

void CircuitBuilder::reserve(std::size_t wires) {
  circuit_.gates_.reserve(wires);
  layers_.reserve(wires);
}

Wire CircuitBuilder::append(GateOp op, Wire a, Wire b) {
  const Wire w = static_cast<Wire>(circuit_.gates_.size());
  circuit_.gates_.push_back(Gate{op, a, b});
  std::uint32_t layer = 0;
  switch (op) {
    case GateOp::kInput:
      ++circuit_.stats_.input_wires;
      break;
    case GateOp::kConstZero:
    case GateOp::kConstOne:
      break;
    case GateOp::kXor:
      ++circuit_.stats_.xor_gates;
      layer = std::max(layers_[a], layers_[b]);
      break;
    case GateOp::kAnd:
      ++circuit_.stats_.and_gates;
      layer = std::max(layers_[a], layers_[b]) + 1;
      circuit_.stats_.and_depth =
          std::max<std::uint64_t>(circuit_.stats_.and_depth, layer);
      break;
    case GateOp::kNot:
      ++circuit_.stats_.not_gates;
      layer = layers_[a];
      break;
  }
  layers_.push_back(layer);
  if (op != GateOp::kInput) {
    const std::size_t slot = slot_of(op, layer);
    if (slot >= slot_sizes_.size()) slot_sizes_.resize(slot + 1, 0);
    ++slot_sizes_[slot];
  }
  return w;
}

std::optional<bool> CircuitBuilder::const_of(Wire w) const {
  if (w == zero_wire_) return false;
  if (w == one_wire_) return true;
  return std::nullopt;
}

Wire CircuitBuilder::input_bit(std::uint32_t party) {
  const Wire w = append(GateOp::kInput, party, 0);
  circuit_.inputs_.push_back(w);
  return w;
}

WireVec CircuitBuilder::input_bits(std::uint32_t party, unsigned width) {
  WireVec v(width);
  for (auto& w : v) w = input_bit(party);
  return v;
}

Wire CircuitBuilder::zero() {
  if (zero_wire_ == kNoWire) zero_wire_ = append(GateOp::kConstZero, 0, 0);
  return zero_wire_;
}

Wire CircuitBuilder::one() {
  if (one_wire_ == kNoWire) one_wire_ = append(GateOp::kConstOne, 0, 0);
  return one_wire_;
}

WireVec CircuitBuilder::constant_bits(std::uint64_t value, unsigned width) {
  WireVec v(width);
  for (unsigned i = 0; i < width; ++i) v[i] = constant((value >> i) & 1);
  return v;
}

Wire CircuitBuilder::Xor(Wire a, Wire b) {
  const auto ca = const_of(a);
  const auto cb = const_of(b);
  if (ca && cb) return constant(*ca != *cb);
  if (ca) return *ca ? Not(b) : b;
  if (cb) return *cb ? Not(a) : a;
  if (a == b) return zero();
  return append(GateOp::kXor, a, b);
}

Wire CircuitBuilder::And(Wire a, Wire b) {
  const auto ca = const_of(a);
  const auto cb = const_of(b);
  if (ca) return *ca ? b : zero();
  if (cb) return *cb ? a : zero();
  if (a == b) return a;
  return append(GateOp::kAnd, a, b);
}

Wire CircuitBuilder::Not(Wire a) {
  const auto ca = const_of(a);
  if (ca) return constant(!*ca);
  return append(GateOp::kNot, a, 0);
}

Wire CircuitBuilder::Or(Wire a, Wire b) {
  // a | b == (a ^ b) ^ (a & b); folding handles constant operands upstream.
  return Xor(Xor(a, b), And(a, b));
}

Wire CircuitBuilder::Mux(Wire sel, Wire if_true, Wire if_false) {
  // f ^ sel & (t ^ f): one AND gate.
  return Xor(if_false, And(sel, Xor(if_true, if_false)));
}

WireVec CircuitBuilder::xor_vec(const WireVec& a, const WireVec& b) {
  require(a.size() == b.size(), "CircuitBuilder: xor_vec width mismatch");
  WireVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = Xor(a[i], b[i]);
  return out;
}

WireVec CircuitBuilder::zext(WireVec v, unsigned width) {
  while (v.size() < width) v.push_back(zero());
  require(v.size() == width, "CircuitBuilder: zext cannot narrow");
  return v;
}

WireVec CircuitBuilder::add_trunc(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  auto full = add_expand(a, b);
  full.resize(width);
  return full;
}

WireVec CircuitBuilder::add_expand(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  WireVec out;
  out.reserve(width + 1);
  add_expand_into(a, b, width, out);
  return out;
}

void CircuitBuilder::add_expand_into(std::span<const Wire> a,
                                     std::span<const Wire> b, unsigned width,
                                     WireVec& out) {
  const Wire zero_wire = zero();
  const auto bit = [&](std::span<const Wire> v, unsigned i) {
    return i < v.size() ? v[i] : zero_wire;
  };
  Wire carry = zero_wire;
  for (unsigned i = 0; i < width; ++i) {
    // Full adder: sum = a^b^c; carry' = (a&b) ^ (c & (a^b)).
    const Wire ai = bit(a, i);
    const Wire bi = bit(b, i);
    const Wire axb = Xor(ai, bi);
    out.push_back(Xor(axb, carry));
    carry = Xor(And(ai, bi), And(carry, axb));
  }
  out.push_back(carry);
}

WireVec CircuitBuilder::add_mod(const WireVec& a, const WireVec& b,
                                std::uint64_t q) {
  require(q >= 2, "CircuitBuilder: add_mod modulus must be >= 2");
  const unsigned width = bit_width_for(q - 1);
  require(a.size() <= width && b.size() <= width,
          "CircuitBuilder: add_mod operand wider than the ring");
  // t = a + b (width+1 bits).
  WireVec t;
  t.reserve(width + 1);
  add_expand_into(a, b, width, t);
  if (std::has_single_bit(q)) {
    // Power-of-two modulus: truncation is the reduction.
    t.resize(width);
    return t;
  }
  // result = t >= q ? t - q : t.
  const Wire wrap = ge_const(t, q);
  // t - q == t + (2^(width+1) - q) mod 2^(width+1).
  const std::uint64_t comp = (std::uint64_t{1} << (width + 1)) - q;
  auto reduced = add_expand(t, constant_bits(comp, width + 1));
  reduced.resize(width + 1);
  auto chosen = mux_vec(wrap, reduced, t);
  chosen.resize(width);
  return chosen;
}

Wire CircuitBuilder::lt(const WireVec& a, const WireVec& b) {
  const auto width = static_cast<unsigned>(std::max(a.size(), b.size()));
  const Wire zero_wire = zero();
  Wire borrow = zero_wire;
  for (unsigned i = 0; i < width; ++i) {
    const Wire ai = i < a.size() ? a[i] : zero_wire;
    const Wire bi = i < b.size() ? b[i] : zero_wire;
    // Subtract borrow chain: borrow' = (~a & b) ^ (~(a^b) & borrow); the two
    // terms are disjoint, so XOR equals OR here.
    const Wire d = Xor(ai, bi);
    borrow = Xor(And(Not(ai), bi), And(Not(d), borrow));
  }
  return borrow;
}

Wire CircuitBuilder::ge(const WireVec& a, const WireVec& b) {
  return Not(lt(a, b));
}

Wire CircuitBuilder::lt_const(const WireVec& a, std::uint64_t t) {
  const auto width = static_cast<unsigned>(
      std::max<std::size_t>(a.size(), bit_width_for(t)));
  return lt(zext(a, width), constant_bits(t, width));
}

Wire CircuitBuilder::ge_const(const WireVec& a, std::uint64_t t) {
  return Not(lt_const(a, t));
}

Wire CircuitBuilder::eq_const(const WireVec& a, std::uint64_t t) {
  if (a.size() < 64 && (t >> a.size()) != 0) return zero();
  Wire acc = one();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool bit = (i < 64) && ((t >> i) & 1);
    acc = And(acc, bit ? a[i] : Not(a[i]));
  }
  return acc;
}

WireVec CircuitBuilder::popcount(std::span<const Wire> bits) {
  if (bits.empty()) return constant_bits(0, 1);
  std::vector<std::size_t> ends(bits.size());
  std::iota(ends.begin(), ends.end(), std::size_t{1});
  return sum_runs(WireVec(bits.begin(), bits.end()), std::move(ends));
}

WireVec CircuitBuilder::sum_tree(std::vector<WireVec> values) {
  require(!values.empty(), "CircuitBuilder: sum_tree of nothing");
  WireVec wires;
  std::vector<std::size_t> ends;
  for (const WireVec& v : values) {
    wires.insert(wires.end(), v.begin(), v.end());
    ends.push_back(wires.size());
  }
  return sum_runs(std::move(wires), std::move(ends));
}

WireVec CircuitBuilder::sum_runs(WireVec wires, std::vector<std::size_t> ends) {
  // Balanced binary reduction keeps both size and depth logarithmic: each
  // level adds neighbouring values pairwise (an odd last value moves up
  // unchanged). Value k of a level is wires[ends[k - 1], ends[k]).
  const auto run = [](const WireVec& w, const std::vector<std::size_t>& e,
                      std::size_t k) {
    const std::size_t begin = k == 0 ? 0 : e[k - 1];
    return std::span<const Wire>(w).subspan(begin, e[k] - begin);
  };
  while (ends.size() > 1) {
    WireVec next;
    next.reserve(wires.size() + ends.size());
    std::vector<std::size_t> next_ends;
    next_ends.reserve((ends.size() + 1) / 2);
    for (std::size_t k = 0; k + 1 < ends.size(); k += 2) {
      const auto a = run(wires, ends, k);
      const auto b = run(wires, ends, k + 1);
      add_expand_into(a, b,
                      static_cast<unsigned>(std::max(a.size(), b.size())),
                      next);
      next_ends.push_back(next.size());
    }
    if (ends.size() % 2 == 1) {
      const auto last = run(wires, ends, ends.size() - 1);
      next.insert(next.end(), last.begin(), last.end());
      next_ends.push_back(next.size());
    }
    wires = std::move(next);
    ends = std::move(next_ends);
  }
  return wires;
}

WireVec CircuitBuilder::mux_vec(Wire sel, const WireVec& a, const WireVec& b) {
  require(a.size() == b.size(), "CircuitBuilder: mux_vec width mismatch");
  WireVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = Mux(sel, a[i], b[i]);
  return out;
}

void CircuitBuilder::output(Wire w) {
  require(w < circuit_.gates_.size(), "CircuitBuilder: bad output wire");
  circuit_.outputs_.push_back(w);
}

void CircuitBuilder::output_vec(const WireVec& v) {
  for (const Wire w : v) output(w);
}

Circuit CircuitBuilder::take() {
  // Bucket the non-input wires into their schedule slots (counted by
  // append). Wire order is kept inside a slot, which keeps every slot
  // topologically ordered.
  const std::vector<Gate>& gates = circuit_.gates_;
  const std::size_t slots = 2 * circuit_.stats_.and_depth + 1;
  slot_sizes_.resize(slots, 0);
  std::vector<std::uint32_t> offsets(slots + 1, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    offsets[s + 1] = offsets[s] + slot_sizes_[s];
  }
  WireVec schedule(offsets[slots]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t w = 0; w < gates.size(); ++w) {
    if (gates[w].op == GateOp::kInput) continue;
    schedule[cursor[slot_of(gates[w].op, layers_[w])]++] =
        static_cast<Wire>(w);
  }
  circuit_.schedule_ = std::move(schedule);
  circuit_.slot_offsets_ = std::move(offsets);
  layers_ = {};
  slot_sizes_ = {};
  return std::move(circuit_);
}

}  // namespace eppi::mpc
