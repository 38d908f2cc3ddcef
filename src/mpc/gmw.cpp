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

std::uint64_t low_lanes(unsigned n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

// Lanes of word k of a wire that carries `lanes` lanes.
unsigned lanes_in_word(std::uint64_t lanes, std::size_t k) noexcept {
  return static_cast<unsigned>(std::min<std::uint64_t>(64, lanes - 64 * k));
}

// Packs runs of 1..64 lanes into a stream of lane words: the i-th lane
// pushed lands in lane i % 64 of word i / 64.
class LaneWriter {
 public:
  // Lanes of `w` at and above n must be zero.
  void push(const SecretLanes& w, unsigned n) {
    acc_ = acc_ ^ (w << fill_);
    if (fill_ + n < 64) {
      fill_ += n;
      return;
    }
    words_.push_back(acc_);
    acc_ = fill_ == 0 ? SecretLanes() : (w >> (64 - fill_));
    fill_ = fill_ + n - 64;
  }

  std::vector<SecretLanes> finish() {
    if (fill_ > 0) words_.push_back(acc_);
    fill_ = 0;
    acc_ = SecretLanes();
    return std::move(words_);
  }

 private:
  std::vector<SecretLanes> words_;
  SecretLanes acc_;
  unsigned fill_ = 0;
};

// Reads a stream of lane words back in runs of 1..64 lanes.
class LaneReader {
 public:
  explicit LaneReader(std::span<const SecretLanes> words) : words_(words) {}

  SecretLanes pop(unsigned n) {
    const std::size_t i = pos_ / 64;
    const auto off = static_cast<unsigned>(pos_ % 64);
    SecretLanes w = words_[i] >> off;
    if (off + n > 64) w = w ^ (words_[i + 1] << (64 - off));
    pos_ += n;
    return w & low_lanes(n);
  }

 private:
  std::span<const SecretLanes> words_;
  std::uint64_t pos_ = 0;
};

// Lane words of `bits` packed bits (a received share buffer).
std::vector<SecretLanes> words_of(const std::vector<std::uint8_t>& packed,
                                  std::uint64_t bits) {
  std::vector<SecretLanes> words((bits + 63) / 64);
  for (std::size_t k = 0; k < words.size(); ++k) {
    words[k] = SecretLanes(eppi::BitLanes{
        load_packed_word(packed, 64 * k, lanes_in_word(bits, k))});
  }
  return words;
}

// Packed bytes of the first `bits` lanes of a word stream. Wire path: the
// caller sends them (a masked opening or an output opening).
std::vector<std::uint8_t> packed_of(std::span<const SecretLanes> words,
                                    std::uint64_t bits) {
  std::vector<std::uint8_t> packed(packed_size(bits), 0);
  for (std::size_t k = 0; k < words.size(); ++k) {
    store_packed_word(packed, 64 * k, words[k].unwrap_for_wire().bits,
                      lanes_in_word(bits, k));
  }
  return packed;
}

// One group's wire shares: wire w holds words [w * words, (w + 1) * words),
// lane l in bit l % 64 of word l / 64.
struct GroupShares {
  const Circuit* circuit;
  std::uint64_t lanes;
  std::size_t words;
  std::vector<SecretLanes> share;

  SecretLanes* wire(Wire w) { return share.data() + w * words; }
};

// Preprocessing: the lead deals every triple of the program and sends each
// peer its shares; the others receive and check theirs.
TripleShares preprocess(PartyContext& ctx, const GmwSession& session,
                        std::size_t me, std::uint64_t n_triples) {
  const std::size_t n = session.parties.size();
  const std::uint64_t seq = session.seq_base + kSeqTriples;
  if (me == 0) {
    auto dealt = deal_triples(n, n_triples, ctx.rng());
    for (std::size_t p = 1; p < n; ++p) {
      // Wire path: party p's triple shares, serialized toward party p.
      eppi::BinaryWriter w;
      w.write_varint(dealt[p].count);
      w.write_bytes(dealt[p].a.unwrap_for_wire());
      w.write_bytes(dealt[p].b.unwrap_for_wire());
      w.write_bytes(dealt[p].c.unwrap_for_wire());
      ctx.send(session.parties[p], MessageTag::kBeaverTriple, seq, w.take());
    }
    ctx.mark_round();
    return std::move(dealt[0]);
  }
  const auto payload =
      ctx.recv(session.parties[0], MessageTag::kBeaverTriple, seq);
  eppi::BinaryReader r(payload);
  TripleShares triples;
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
  return triples;
}

// One party's view of a session: the triples it holds and the layers it
// has opened so far.
class Engine {
 public:
  Engine(PartyContext& ctx, const GmwSession& session, std::size_t me,
         TripleShares triples)
      : ctx_(ctx), session_(session), me_(me), triples_(std::move(triples)) {}

  // Evaluates `groups` in lockstep. Group g's input wires read their lanes
  // from inputs[owner] (for a tail, every owner maps to the one stream);
  // returns the output shares as a lane-word stream in (group, output wire,
  // lane) order.
  std::vector<SecretLanes> evaluate(std::span<const CircuitGroup> groups,
                                    std::vector<LaneReader>& inputs,
                                    bool inputs_by_owner);

  // Opens the first `bits` lanes of an output stream.
  std::vector<bool> open(std::span<const SecretLanes> outputs,
                         std::uint64_t bits);

 private:
  void eval_local(GroupShares& gs, std::span<const Wire> wires);
  void open_and_layer(std::vector<GroupShares>& state, std::uint32_t r);
  void exchange(std::vector<std::uint8_t>& mine, MessageTag tag,
                std::uint64_t seq);

  PartyContext& ctx_;
  const GmwSession& session_;
  std::size_t me_;
  TripleShares triples_;
  std::uint32_t layers_done_ = 0;
  std::uint64_t first_triple_ = 0;
};

void Engine::eval_local(GroupShares& gs, std::span<const Wire> wires) {
  const auto& gates = gs.circuit->gates();
  const std::size_t words = gs.words;
  // Public constants enter through party 0's share only.
  const std::uint64_t one = me_ == 0 ? ~std::uint64_t{0} : 0;
  for (const Wire w : wires) {
    const Gate& g = gates[w];
    SecretLanes* out = gs.wire(w);
    switch (g.op) {
      case GateOp::kConstZero:
        std::fill_n(out, words, SecretLanes());
        break;
      case GateOp::kConstOne:
        std::fill_n(out, words, SecretLanes(eppi::BitLanes{one}));
        break;
      case GateOp::kXor: {
        const SecretLanes* a = gs.wire(g.a);
        const SecretLanes* b = gs.wire(g.b);
        for (std::size_t k = 0; k < words; ++k) out[k] = a[k] ^ b[k];
        break;
      }
      case GateOp::kNot: {
        const SecretLanes* a = gs.wire(g.a);
        for (std::size_t k = 0; k < words; ++k) out[k] = a[k] ^ one;
        break;
      }
      case GateOp::kInput:
      case GateOp::kAnd:
        // Shared before the schedule / opened by the round loop; never in a
        // local slot.
        break;
    }
  }
}

void Engine::exchange(std::vector<std::uint8_t>& mine, MessageTag tag,
                      std::uint64_t seq) {
  const std::size_t n = session_.parties.size();
  for (std::size_t p = 0; p < n; ++p) {
    if (p == me_) continue;
    ctx_.send(session_.parties[p], tag, seq, mine);
  }
  for (std::size_t p = 0; p < n; ++p) {
    if (p == me_) continue;
    const auto payload = ctx_.recv(session_.parties[p], tag, seq);
    if (payload.size() != mine.size()) {
      throw eppi::ProtocolError("GMW: bad opening payload size");
    }
    for (std::size_t byte = 0; byte < mine.size(); ++byte) {
      mine[byte] ^= payload[byte];
    }
  }
  if (me_ == 0) ctx_.mark_round();
}

// Opens AND layer r of every group in one frame. The layer's gate-lanes
// form one stream — group by group, gate by gate in schedule order, lane by
// lane — that consumes the next triples in order and is masked, opened and
// multiplied 64 gate-lanes per word.
void Engine::open_and_layer(std::vector<GroupShares>& state, std::uint32_t r) {
  LaneWriter xs;
  LaneWriter ys;
  std::uint64_t k_total = 0;
  for (GroupShares& gs : state) {
    const auto& gates = gs.circuit->gates();
    for (const Wire w : gs.circuit->and_layer(r)) {
      const SecretLanes* a = gs.wire(gates[w].a);
      const SecretLanes* b = gs.wire(gates[w].b);
      for (std::size_t k = 0; k < gs.words; ++k) {
        const unsigned n = lanes_in_word(gs.lanes, k);
        xs.push(a[k] & low_lanes(n), n);
        ys.push(b[k] & low_lanes(n), n);
      }
    }
    k_total += gs.circuit->and_layer(r).size() * gs.lanes;
  }
  const std::vector<SecretLanes> x = xs.finish();
  const std::vector<SecretLanes> y = ys.finish();

  // My masked shares: 2 bits per gate-lane (d_i, e_i), interleaved. The
  // masked share d = x ⊕ a stays secret until every party's contribution
  // is XORed in; broadcasting it is the wire path of the masked-opening
  // round.
  std::vector<std::uint8_t> opened(packed_size(2 * k_total), 0);
  for (std::size_t s = 0; s < x.size(); ++s) {
    const unsigned n = lanes_in_word(k_total, s);
    const std::uint64_t t = first_triple_ + 64 * s;
    const SecretLanes d_share = x[s] ^ triples_.a_lanes(t, n);
    const SecretLanes e_share = y[s] ^ triples_.b_lanes(t, n);
    store_interleaved(opened, 64 * s, d_share.unwrap_for_wire().bits,
                      e_share.unwrap_for_wire().bits, n);
  }
  ++layers_done_;
  exchange(opened, MessageTag::kMpcOpen,
           session_.seq_base + kSeqLayerBase + layers_done_);

  // d, e are public (fully opened); z stays a tainted share.
  std::vector<SecretLanes> z(x.size());
  for (std::size_t s = 0; s < z.size(); ++s) {
    const unsigned n = lanes_in_word(k_total, s);
    const std::uint64_t t = first_triple_ + 64 * s;
    const auto [d, e] = load_interleaved(opened, 64 * s, n);
    z[s] = triples_.c_lanes(t, n) ^ (triples_.b_lanes(t, n) & d) ^
           (triples_.a_lanes(t, n) & e);
    if (me_ == 0) z[s] = z[s] ^ (d & e);
  }
  first_triple_ += k_total;
  LaneReader zs(z);
  for (GroupShares& gs : state) {
    for (const Wire w : gs.circuit->and_layer(r)) {
      SecretLanes* out = gs.wire(w);
      for (std::size_t k = 0; k < gs.words; ++k) {
        out[k] = zs.pop(lanes_in_word(gs.lanes, k));
      }
    }
  }
}

std::vector<SecretLanes> Engine::evaluate(std::span<const CircuitGroup> groups,
                                          std::vector<LaneReader>& inputs,
                                          bool inputs_by_owner) {
  std::vector<GroupShares> state;
  state.reserve(groups.size());
  std::uint64_t depth = 0;
  for (const CircuitGroup& g : groups) {
    const std::size_t words = (g.lanes + 63) / 64;
    GroupShares gs{g.circuit, g.lanes, words,
                   std::vector<SecretLanes>(g.circuit->n_wires() * words)};
    for (const Wire w : g.circuit->inputs()) {
      LaneReader& in = inputs[inputs_by_owner ? g.circuit->input_owner(w) : 0];
      SecretLanes* out = gs.wire(w);
      for (std::size_t k = 0; k < words; ++k) {
        out[k] = in.pop(lanes_in_word(g.lanes, k));
      }
    }
    eval_local(gs, g.circuit->local_layer(0));
    depth = std::max(depth, g.circuit->stats().and_depth);
    state.push_back(std::move(gs));
  }
  for (std::uint32_t r = 1; r <= depth; ++r) {
    open_and_layer(state, r);
    for (GroupShares& gs : state) eval_local(gs, gs.circuit->local_layer(r));
  }
  LaneWriter outs;
  for (GroupShares& gs : state) {
    for (const Wire w : gs.circuit->outputs()) {
      const SecretLanes* v = gs.wire(w);
      for (std::size_t k = 0; k < gs.words; ++k) {
        const unsigned n = lanes_in_word(gs.lanes, k);
        outs.push(v[k] & low_lanes(n), n);
      }
    }
  }
  return outs.finish();
}

std::vector<bool> Engine::open(std::span<const SecretLanes> outputs,
                               std::uint64_t bits) {
  // Output opening: every party broadcasts its output-wire shares.
  std::vector<std::uint8_t> opened = packed_of(outputs, bits);
  exchange(opened, MessageTag::kMpcOutputShare,
           session_.seq_base + kSeqLayerBase + layers_done_ + 1);
  std::vector<bool> result(bits);
  for (std::uint64_t i = 0; i < bits; ++i) {
    result[i] = get_packed_bit(opened, i);
  }
  return result;
}

}  // namespace

std::uint64_t gmw_round_count(std::span<const CircuitGroup> groups,
                              const Circuit* tail) {
  // triples + inputs + one per AND layer + outputs.
  return 3 + combined_stats(groups, tail).and_depth;
}

std::uint64_t gmw_round_count(const Circuit& circuit) noexcept {
  return 3 + circuit.stats().and_depth;
}

std::vector<bool> run_gmw_party(PartyContext& ctx, const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs) {
  const CircuitGroup group{&circuit, 1};
  return run_gmw_party(ctx, session, std::span(&group, 1), my_inputs);
}

std::vector<bool> run_gmw_party(PartyContext& ctx, const GmwSession& session,
                                std::span<const CircuitGroup> groups,
                                const std::vector<bool>& my_inputs,
                                const Circuit* tail) {
  const std::size_t n = session.parties.size();
  require(n >= 2, "GMW: need at least two parties");
  const std::size_t me = session_index(session, ctx.id());
  const std::uint64_t base = session.seq_base;

  // Input bits per session party, and the groups' output count.
  std::vector<std::uint64_t> input_count(n, 0);
  std::uint64_t group_outputs = 0;
  for (const CircuitGroup& g : groups) {
    require(g.circuit != nullptr && g.lanes >= 1,
            "GMW: a group needs a circuit and at least one lane");
    for (const Wire w : g.circuit->inputs()) {
      const std::uint32_t owner = g.circuit->input_owner(w);
      require(owner < n, "GMW: input owner outside session");
      input_count[owner] += g.lanes;
    }
    group_outputs += g.circuit->outputs().size() * g.lanes;
  }
  require(my_inputs.size() == input_count[me],
          "GMW: wrong number of input bits supplied");
  require(tail == nullptr || tail->inputs().size() == group_outputs,
          "GMW: tail inputs must match the groups' outputs");

  Engine engine(ctx, session, me,
                preprocess(ctx, session, me, combined_stats(groups, tail)
                                                 .and_gates));

  // --- Input sharing ---------------------------------------------------------
  // Split my input bits into n XOR shares via the first-class primitive;
  // send one packed share buffer to the peer that is supposed to hold it.
  // held[p] is my share of party p's input bits as lane words.
  std::vector<std::vector<SecretLanes>> held(n);
  {
    const std::uint64_t mine = input_count[me];
    std::vector<std::uint8_t> packed_inputs(packed_size(mine), 0);
    for (std::uint64_t i = 0; i < mine; ++i) {
      if (my_inputs[i]) packed_inputs[i / 8] |= std::uint8_t(1u << (i % 8));
    }
    const auto out_shares =
        eppi::secret::split_xor_packed(packed_inputs, mine, n, ctx.rng());
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me || mine == 0) continue;
      ctx.send(session.parties[p], MessageTag::kMpcInputShare,
               base + kSeqInputs, out_shares[p].unwrap_for_wire());
    }
    held[me] = words_of(out_shares[me].unwrap_for_wire(), mine);
    for (std::size_t p = 0; p < n; ++p) {
      if (p == me || input_count[p] == 0) continue;
      const auto received = ctx.recv(
          session.parties[p], MessageTag::kMpcInputShare, base + kSeqInputs);
      if (received.size() != packed_size(input_count[p])) {
        throw eppi::ProtocolError("GMW: bad input-share payload size");
      }
      held[p] = words_of(received, input_count[p]);
    }
    if (me == 0) ctx.mark_round();
  }

  // --- Lockstep evaluation, then the tail on the groups' shared outputs ------
  std::vector<LaneReader> inputs(held.begin(), held.end());
  std::vector<SecretLanes> outputs =
      engine.evaluate(groups, inputs, /*inputs_by_owner=*/true);
  std::uint64_t output_bits = group_outputs;
  if (tail != nullptr) {
    std::vector<LaneReader> handoff{LaneReader(outputs)};
    const CircuitGroup tail_group{tail, 1};
    outputs = engine.evaluate(std::span(&tail_group, 1), handoff,
                              /*inputs_by_owner=*/false);
    output_bits = tail->outputs().size();
  }

  // --- Output opening ----------------------------------------------------------
  return engine.open(outputs, output_bits);
}

}  // namespace eppi::mpc
