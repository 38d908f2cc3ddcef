#include "mpc/gmw.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"
#include "mpc/beaver.h"
#include "secret/secret.h"
#include "secret/xor_share.h"

namespace eppi::mpc {

namespace {

using eppi::SecretBit;
using eppi::SecretBytes;
using eppi::SecretLanes;
using eppi::net::MessageTag;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// Sequence-number layout within a session's namespace.
constexpr std::uint64_t kSeqTriples = 0;
constexpr std::uint64_t kSeqInputs = 1;
constexpr std::uint64_t kSeqLayerBase = 2;  // + layer index (1-based)

// Spreads the low 32 bits of x to the even bit positions.
std::uint64_t spread_even(std::uint64_t x) noexcept {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

// Gathers the even bit positions of x into the low 32 bits.
std::uint64_t gather_even(std::uint64_t x) noexcept {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffULL;
  return (x | (x >> 16)) & 0xffffffffULL;
}

// Opening frames carry gate i's (d_i, e_i) at bits (2i, 2i + 1). Writes
// `lanes` gates' d and e words, starting at gate `first` (a multiple of 64,
// so the frame offset is byte-aligned).
void store_interleaved(std::vector<std::uint8_t>& frame, std::uint64_t first,
                       std::uint64_t d, std::uint64_t e, unsigned lanes) {
  const std::uint64_t lo = spread_even(d) | (spread_even(e) << 1);
  const std::uint64_t hi = spread_even(d >> 32) | (spread_even(e >> 32) << 1);
  store_packed_word(frame, 2 * first, lo, std::min(64u, 2 * lanes));
  if (lanes > 32) store_packed_word(frame, 2 * first + 64, hi, 2 * lanes - 64);
}

// Inverse of store_interleaved: the (d, e) words of `lanes` gates.
std::pair<std::uint64_t, std::uint64_t> load_interleaved(
    const std::vector<std::uint8_t>& frame, std::uint64_t first,
    unsigned lanes) {
  const std::uint64_t lo =
      load_packed_word(frame, 2 * first, std::min(64u, 2 * lanes));
  const std::uint64_t hi =
      lanes > 32 ? load_packed_word(frame, 2 * first + 64, 2 * lanes - 64)
                 : 0;
  return {gather_even(lo) | (gather_even(hi) << 32),
          gather_even(lo >> 1) | (gather_even(hi >> 1) << 32)};
}

std::size_t session_index(const GmwSession& session, PartyId id) {
  const auto it =
      std::find(session.parties.begin(), session.parties.end(), id);
  require(it != session.parties.end(),
          "GMW: calling party is not a session member");
  return static_cast<std::size_t>(it - session.parties.begin());
}

}  // namespace

std::uint64_t gmw_round_count(const Circuit& circuit) noexcept {
  // triples + inputs + one per AND layer + outputs.
  return 3 + circuit.stats().and_depth;
}

std::vector<bool> run_gmw_party(PartyContext& ctx, const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs) {
  const std::size_t n = session.parties.size();
  require(n >= 2, "GMW: need at least two parties");
  const std::size_t me = session_index(session, ctx.id());
  const bool is_lead = me == 0;
  const std::uint64_t base = session.seq_base;

  // --- Preprocessing: Beaver triples from the dealer ------------------------
  const std::uint64_t n_triples = circuit.stats().and_gates;
  TripleShares triples;
  if (is_lead) {
    auto dealt = deal_triples(n, n_triples, ctx.rng());
    for (std::size_t p = 1; p < n; ++p) {
      // Wire path: party p's triple shares, serialized toward party p.
      eppi::BinaryWriter w;
      w.write_varint(dealt[p].count);
      w.write_bytes(dealt[p].a.unwrap_for_wire());
      w.write_bytes(dealt[p].b.unwrap_for_wire());
      w.write_bytes(dealt[p].c.unwrap_for_wire());
      ctx.send(session.parties[p], MessageTag::kBeaverTriple, base + kSeqTriples,
               w.take());
    }
    triples = std::move(dealt[0]);
    ctx.mark_round();
  } else {
    const auto payload =
        ctx.recv(session.parties[0], MessageTag::kBeaverTriple,
                 base + kSeqTriples);
    eppi::BinaryReader r(payload);
    triples.count = r.read_varint();
    triples.a = SecretBytes(r.read_bytes());
    triples.b = SecretBytes(r.read_bytes());
    triples.c = SecretBytes(r.read_bytes());
    const std::size_t bytes = packed_size(n_triples);
    if (triples.count != n_triples ||
        triples.a.unwrap_for_wire().size() != bytes ||
        triples.b.unwrap_for_wire().size() != bytes ||
        triples.c.unwrap_for_wire().size() != bytes) {
      throw eppi::ProtocolError("GMW: triple batch size mismatch");
    }
  }

  // --- Input sharing ---------------------------------------------------------
  // share[w] = my XOR share of wire w once evaluated (tainted: wire shares
  // leave this vector only through masked/output openings).
  std::vector<SecretBit> share(circuit.n_wires());

  // Input bits per session party, in declaration order.
  const auto& gates = circuit.gates();
  std::vector<std::uint64_t> input_count(n, 0);
  for (const Wire w : circuit.inputs()) {
    const std::uint32_t owner = circuit.input_owner(w);
    require(owner < n, "GMW: input owner outside session");
    ++input_count[owner];
  }
  require(my_inputs.size() == input_count[me],
          "GMW: wrong number of input bits supplied");

  {
    // Split my input bits into n XOR shares via the first-class primitive;
    // send one packed share buffer to the peer that is supposed to hold it.
    const std::uint64_t mine = input_count[me];
    std::vector<std::uint8_t> packed_inputs(packed_size(mine), 0);
    for (std::uint64_t i = 0; i < mine; ++i) {
      set_packed_bit(packed_inputs, i, my_inputs[i]);
    }
    const auto out_shares =
        eppi::secret::split_xor_packed(packed_inputs, mine, n, ctx.rng());
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me || mine == 0) continue;
      ctx.send(session.parties[p], MessageTag::kMpcInputShare,
               base + kSeqInputs, out_shares[p].unwrap_for_wire());
    }
    // held[p]: my packed share of party p's input bits.
    std::vector<std::vector<std::uint8_t>> received(n);
    std::vector<const std::vector<std::uint8_t>*> held(n);
    held[me] = &out_shares[me].unwrap_for_wire();
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me || input_count[p] == 0) continue;
      received[p] = ctx.recv(session.parties[p], MessageTag::kMpcInputShare,
                             base + kSeqInputs);
      if (received[p].size() != packed_size(input_count[p])) {
        throw eppi::ProtocolError("GMW: bad input-share payload size");
      }
      held[p] = &received[p];
    }
    std::vector<std::uint64_t> cursor(n, 0);
    for (const Wire w : circuit.inputs()) {
      const std::uint32_t owner = gates[w].a;
      share[w] = SecretBit(get_packed_bit(*held[owner], cursor[owner]++));
    }
    if (is_lead) ctx.mark_round();
  }

  // --- Local evaluation of one schedule slot --------------------------------
  const auto eval_local = [&](std::span<const Wire> wires) {
    for (const Wire w : wires) {
      const Gate& g = gates[w];
      switch (g.op) {
        case GateOp::kConstZero:
          share[w] = SecretBit(false);
          break;
        case GateOp::kConstOne:
          share[w] = SecretBit(me == 0);
          break;
        case GateOp::kXor:
          share[w] = share[g.a] ^ share[g.b];
          break;
        case GateOp::kNot:
          // Public constant enters through party 0's share only.
          share[w] = me == 0 ? (share[g.a] ^ true) : share[g.a];
          break;
        case GateOp::kInput:
        case GateOp::kAnd:
          // Shared above / opened by the round loop; never in a local slot.
          break;
      }
    }
  };

  // --- Round loop: one masked opening per AND layer ---------------------------
  // Each layer is processed 64 gates at a time: gather the operand shares
  // into lanes, mask and open them word-wide, and scatter the product
  // shares back. Triples are consumed in schedule order, so layer r uses
  // the contiguous range after layers 1..r-1.
  const auto depth = static_cast<std::uint32_t>(circuit.stats().and_depth);
  eval_local(circuit.local_layer(0));
  std::uint64_t first_triple = 0;
  for (std::uint32_t layer = 1; layer <= depth; ++layer) {
    const std::span<const Wire> ands = circuit.and_layer(layer);
    const std::uint64_t k = ands.size();

    // My masked shares: 2 bits per gate (d_i, e_i), interleaved. The masked
    // share d = x ⊕ a stays secret until every party's contribution is
    // XORed in; broadcasting it is the wire path of the masked-opening
    // round.
    std::vector<std::uint8_t> masked(packed_size(2 * k), 0);
    for (std::uint64_t g0 = 0; g0 < k; g0 += 64) {
      const auto lanes =
          static_cast<unsigned>(std::min<std::uint64_t>(64, k - g0));
      SecretLanes x;
      SecretLanes y;
      for (unsigned i = 0; i < lanes; ++i) {
        const Gate& g = gates[ands[g0 + i]];
        x.set_lane(i, share[g.a]);
        y.set_lane(i, share[g.b]);
      }
      const SecretLanes d_share = x ^ triples.a_lanes(first_triple + g0, lanes);
      const SecretLanes e_share = y ^ triples.b_lanes(first_triple + g0, lanes);
      store_interleaved(masked, g0, d_share.unwrap_for_wire().bits,
                        e_share.unwrap_for_wire().bits, lanes);
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me) continue;
      ctx.send(session.parties[p], MessageTag::kMpcOpen,
               base + kSeqLayerBase + layer, masked);
    }
    // Opened (d, e) = XOR over all parties' masked shares.
    std::vector<std::uint8_t> opened = std::move(masked);
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me) continue;
      const auto payload = ctx.recv(session.parties[p], MessageTag::kMpcOpen,
                                    base + kSeqLayerBase + layer);
      if (payload.size() != opened.size()) {
        throw eppi::ProtocolError("GMW: bad opening payload size");
      }
      for (std::size_t byte = 0; byte < opened.size(); ++byte) {
        opened[byte] ^= payload[byte];
      }
    }
    for (std::uint64_t g0 = 0; g0 < k; g0 += 64) {
      const auto lanes =
          static_cast<unsigned>(std::min<std::uint64_t>(64, k - g0));
      const std::uint64_t t = first_triple + g0;
      // d, e are public (fully opened); z stays a tainted share.
      const auto [d, e] = load_interleaved(opened, g0, lanes);
      SecretLanes z = triples.c_lanes(t, lanes) ^
                      (triples.b_lanes(t, lanes) & d) ^
                      (triples.a_lanes(t, lanes) & e);
      if (me == 0) z = z ^ (d & e);
      for (unsigned i = 0; i < lanes; ++i) share[ands[g0 + i]] = z.lane(i);
    }
    first_triple += k;
    if (is_lead) ctx.mark_round();
    eval_local(circuit.local_layer(layer));
  }

  // --- Output opening ----------------------------------------------------------
  const auto& outs = circuit.outputs();
  std::vector<std::uint8_t> out_shares(packed_size(outs.size()), 0);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    // Output opening: every party broadcasts its output-wire shares.
    set_packed_bit(out_shares, i, share[outs[i]].unwrap_for_wire());
  }
  const std::uint64_t out_seq = base + kSeqLayerBase + depth + 1;
  for (std::size_t p = 0; p < n; ++p) {
    if (p == me) continue;
    ctx.send(session.parties[p], MessageTag::kMpcOutputShare, out_seq,
             out_shares);
  }
  std::vector<std::uint8_t> opened_out = out_shares;
  for (std::size_t p = 0; p < n; ++p) {
    if (p == me) continue;
    const auto payload = ctx.recv(session.parties[p],
                                  MessageTag::kMpcOutputShare, out_seq);
    if (payload.size() != opened_out.size()) {
      throw eppi::ProtocolError("GMW: bad output payload size");
    }
    for (std::size_t byte = 0; byte < opened_out.size(); ++byte) {
      opened_out[byte] ^= payload[byte];
    }
  }
  if (is_lead) ctx.mark_round();

  std::vector<bool> result(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    result[i] = get_packed_bit(opened_out, i);
  }
  return result;
}

}  // namespace eppi::mpc
