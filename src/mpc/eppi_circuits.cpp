#include "mpc/eppi_circuits.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"
#include "mpc/circuit_builder.h"
#include "secret/mod_ring.h"

namespace eppi::mpc {

std::vector<bool> share_input_bits(std::span<const eppi::SecretU64> shares,
                                   unsigned width) {
  std::vector<bool> bits;
  bits.reserve(shares.size() * width);
  for (const eppi::SecretU64& s : shares) {
    // The circuit engine XOR-shares these bits before anything leaves the
    // party, so this unwrap feeds the MPC input path, not a log or branch.
    const std::uint64_t v = s.unwrap_for_wire();
    for (unsigned b = 0; b < width; ++b) bits.push_back(((v >> b) & 1) != 0);
  }
  return bits;
}

namespace {

// Upper bounds on the wires a block appends before constant folding removes
// any, so each generator reserves its builder's storage once.
constexpr std::size_t kSlackWires = 4096;  // constants, odd tree carries
std::size_t adder_wires(unsigned w) { return 5 * std::size_t{w}; }
std::size_t compare_wires(unsigned w) { return 6 * std::size_t{w} + 1; }
std::size_t add_mod_wires(unsigned w, std::uint64_t q) {
  if (std::has_single_bit(q)) return adder_wires(w);
  // Sum, wrap test on w + 1 bits, subtraction and a w + 1-bit mux.
  return adder_wires(w) + compare_wires(w + 1) + adder_wires(w + 1) +
         3 * (std::size_t{w} + 1);
}
// popcount's adder tree spends at most 10 gates per input bit.
std::size_t popcount_wires(std::size_t bits) { return 10 * bits; }
// The ξ encoder: an OR per identity that shares a rank, then per leaf (at
// most one per identity) its share of the tree (an OR and a mux bit per
// level, three gates each).
std::size_t encoder_wires(std::size_t identities, std::uint64_t max_rank) {
  return 3 * identities +
         6 * (std::min<std::size_t>(identities, max_rank) + 1);
}

// Declares the share inputs of n identities for all parties (party-major)
// and returns shares[j][i] = WireVec of s(i,j).
std::vector<std::vector<WireVec>> declare_share_inputs(CircuitBuilder& cb,
                                                       std::size_t c,
                                                       std::size_t n,
                                                       unsigned width) {
  std::vector<std::vector<WireVec>> shares(n, std::vector<WireVec>(c));
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      shares[j][i] = cb.input_bits(static_cast<std::uint32_t>(i), width);
    }
  }
  return shares;
}

// Reconstructs S_j = sum of one identity's c shares mod q inside the
// circuit.
WireVec sum_shares(CircuitBuilder& cb, const std::vector<WireVec>& shares,
                   std::uint64_t q) {
  WireVec sum = shares[0];
  for (std::size_t i = 1; i < shares.size(); ++i) {
    sum = cb.add_mod(sum, shares[i], q);
  }
  return sum;
}

// CountBelow's per-identity block: the common bit S_j >= t_j.
Wire count_below_block(CircuitBuilder& cb, const std::vector<WireVec>& shares,
                       std::uint64_t q, std::uint64_t threshold) {
  return cb.ge_const(sum_shares(cb, shares, q), threshold);
}

std::uint64_t lambda_threshold(double lambda, unsigned coin_bits) {
  require(lambda >= 0.0 && lambda <= 1.0,
          "eppi_circuits: lambda must be in [0,1]");
  require(coin_bits >= 1 && coin_bits <= 62,
          "eppi_circuits: coin_bits out of range");
  const double scaled = lambda * static_cast<double>(std::uint64_t{1} << coin_bits);
  return static_cast<std::uint64_t>(std::llround(scaled));
}

// MixAndReveal's per-identity block: from S_j and the parties' coin inputs
// for identity j, outputs mix_j = (S_j >= t_j) | (joint coin < λ·2^w), then
// S_j & ~mix_j.
void mix_reveal_block(CircuitBuilder& cb, const WireVec& sum,
                      const std::vector<WireVec>& coins,
                      std::uint64_t threshold, std::uint64_t coin_threshold) {
  const Wire common = cb.ge_const(sum, threshold);
  WireVec joint = coins[0];
  for (std::size_t p = 1; p < coins.size(); ++p) {
    joint = cb.xor_vec(joint, coins[p]);
  }
  const Wire coin = cb.lt_const(joint, coin_threshold);
  const Wire mix = cb.Or(common, coin);
  cb.output(mix);
  const Wire keep = cb.Not(mix);
  for (const Wire bit : sum) cb.output(cb.And(bit, keep));
}

// Declares the coin inputs (party-major, after every share input) and
// appends the MixAndReveal block of each identity.
void append_mix_reveal_outputs(CircuitBuilder& cb, std::size_t n_parties,
                               const std::vector<WireVec>& sums,
                               std::span<const std::uint64_t> thresholds,
                               double lambda, unsigned coin_bits) {
  const std::size_t n = sums.size();
  std::vector<std::vector<WireVec>> coins(n, std::vector<WireVec>(n_parties));
  for (std::size_t p = 0; p < n_parties; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      coins[j][p] = cb.input_bits(static_cast<std::uint32_t>(p), coin_bits);
    }
  }
  const std::uint64_t coin_threshold = lambda_threshold(lambda, coin_bits);
  for (std::size_t j = 0; j < n; ++j) {
    mix_reveal_block(cb, sums[j], coins[j], thresholds[j], coin_threshold);
  }
}

// Pads or truncates to an exact width; truncation is only used where the
// value provably fits (e.g. a count of n bits fits in bit_width_for(n)).
WireVec fit_width(CircuitBuilder& cb, WireVec v, unsigned width) {
  while (v.size() < width) v.push_back(cb.zero());
  v.resize(width);
  return v;
}

std::uint64_t max_of(std::span<const std::uint64_t> values) {
  std::uint64_t m = 0;
  for (const std::uint64_t v : values) m = std::max(m, v);
  return m;
}

unsigned rank_output_width(std::span<const std::uint64_t> ranks) {
  return bit_width_for(max_of(ranks));
}

// OR of `bits` as a balanced tree (constant 0 when empty).
Wire or_tree(CircuitBuilder& cb, std::vector<Wire> bits) {
  if (bits.empty()) return cb.zero();
  while (bits.size() > 1) {
    std::vector<Wire> next;
    next.reserve((bits.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
      next.push_back(cb.Or(bits[i], bits[i + 1]));
    }
    if (bits.size() % 2 == 1) next.push_back(bits.back());
    bits = std::move(next);
  }
  return bits[0];
}

// A node of the ξ encoder over the leaves [base, base + 2^level): valid when
// one of its leaves is, and then `index` holds the low `level` bits of its
// highest valid leaf (all zero when the node is invalid).
struct EncoderNode {
  Wire valid;
  WireVec index;
};

// `leaves` are the node's valid leaves as (rank, valid wire), ascending. A
// subtree without leaves is invalid and folds away, so sparse ranks cost
// nothing for the ranks between them.
EncoderNode encode_range(CircuitBuilder& cb,
                         std::span<const std::pair<std::uint64_t, Wire>> leaves,
                         std::uint64_t base, unsigned level) {
  if (leaves.empty()) return {cb.zero(), WireVec(level, cb.zero())};
  if (level == 0) return {leaves[0].second, {}};
  const std::uint64_t mid = base + (std::uint64_t{1} << (level - 1));
  const auto split = std::partition_point(
      leaves.begin(), leaves.end(),
      [mid](const auto& leaf) { return leaf.first < mid; });
  const auto n_lo = static_cast<std::size_t>(split - leaves.begin());
  const EncoderNode lo = encode_range(cb, leaves.first(n_lo), base, level - 1);
  const EncoderNode hi =
      encode_range(cb, leaves.subspan(n_lo), mid, level - 1);
  // The right child's valid bit is the next index bit and selects which
  // child's lower bits survive.
  EncoderNode node;
  node.index.reserve(level);
  for (unsigned b = 0; b + 1 < level; ++b) {
    node.index.push_back(cb.Mux(hi.valid, hi.index[b], lo.index[b]));
  }
  node.index.push_back(hi.valid);
  // The node holding the dummy leaf 0 is always valid.
  node.valid = base == 0 ? cb.one() : cb.Or(lo.valid, hi.valid);
  return node;
}

// The ξ encoder: the largest rank r with a common identity of rank r, or 0
// when none is common. A priority encoder over the ranks in ascending order:
// leaf r is valid when some identity of rank r is common (ranks that several
// identities share are OR-ed first), and leaf 0 is a dummy that is always
// valid, so the index of the highest valid leaf is the answer.
WireVec xi_encoder(CircuitBuilder& cb, const std::vector<Wire>& common_bits,
                   std::span<const std::uint64_t> ranks) {
  std::vector<std::pair<std::uint64_t, std::size_t>> by_rank;
  by_rank.reserve(ranks.size());
  for (std::size_t j = 0; j < ranks.size(); ++j) {
    if (ranks[j] > 0) by_rank.emplace_back(ranks[j], j);
  }
  std::sort(by_rank.begin(), by_rank.end());
  std::vector<std::pair<std::uint64_t, Wire>> leaves{{0, cb.one()}};
  leaves.reserve(by_rank.size() + 1);
  for (std::size_t k = 0; k < by_rank.size();) {
    const std::uint64_t r = by_rank[k].first;
    std::size_t end = k + 1;
    while (end < by_rank.size() && by_rank[end].first == r) ++end;
    if (end == k + 1) {
      leaves.emplace_back(r, common_bits[by_rank[k].second]);
    } else {
      std::vector<Wire> same;
      for (; k < end; ++k) same.push_back(common_bits[by_rank[k].second]);
      leaves.emplace_back(r, or_tree(cb, std::move(same)));
    }
    k = end;
  }
  return encode_range(cb, leaves, 0, bit_width_for(max_of(ranks))).index;
}

// CountBelow's tail: the common count, then (when ranks are given, aligned
// with common_bits) the ξ encoder.
void count_below_tail(CircuitBuilder& cb, const std::vector<Wire>& common_bits,
                      std::span<const std::uint64_t> ranks) {
  cb.output_vec(fit_width(cb, cb.popcount(common_bits),
                          bit_width_for(common_bits.size())));
  if (!ranks.empty()) cb.output_vec(xi_encoder(cb, common_bits, ranks));
}

void check_spec(const CountBelowSpec& spec) {
  require(spec.c >= 2, "CountBelow: need at least 2 parties");
  require(spec.q >= 2, "CountBelow: modulus required");
  require(!spec.thresholds.empty(), "CountBelow: need at least one identity");
  require(spec.xi_ranks.empty() ||
              spec.xi_ranks.size() == spec.thresholds.size(),
          "eppi_circuits: xi_ranks size mismatch");
}

void check_spec(const MixRevealSpec& spec) {
  require(spec.c >= 2, "MixReveal: need at least 2 parties");
  require(spec.q >= 2, "MixReveal: modulus required");
  require(!spec.thresholds.empty(), "MixReveal: need at least one identity");
}

// One block template per distinct threshold, ascending, each with the
// identities that share it (ascending) as its lanes.
template <typename BuildBlock>
LaneCircuits lanes_by_threshold(std::span<const std::uint64_t> thresholds,
                                BuildBlock build_block) {
  std::vector<std::uint64_t> distinct(thresholds.begin(), thresholds.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  LaneCircuits lc;
  lc.identities.resize(distinct.size());
  for (std::size_t j = 0; j < thresholds.size(); ++j) {
    const auto g = std::lower_bound(distinct.begin(), distinct.end(),
                                    thresholds[j]) -
                   distinct.begin();
    lc.identities[static_cast<std::size_t>(g)].push_back(j);
  }
  lc.blocks.reserve(distinct.size());
  for (const std::uint64_t t : distinct) lc.blocks.push_back(build_block(t));
  return lc;
}

}  // namespace

std::vector<CircuitGroup> LaneCircuits::groups() const {
  std::vector<CircuitGroup> out;
  out.reserve(blocks.size());
  for (std::size_t g = 0; g < blocks.size(); ++g) {
    out.push_back({&blocks[g], identities[g].size()});
  }
  return out;
}

CircuitStats LaneCircuits::stats() const {
  return combined_stats(groups(), tail_circuit());
}

std::vector<bool> lane_input_bits(const LaneCircuits& lc,
                                  std::span<const eppi::SecretU64> shares,
                                  unsigned width,
                                  std::span<const std::uint64_t> coins,
                                  unsigned coin_bits) {
  std::vector<bool> bits;
  bits.reserve(shares.size() * (width + coin_bits));
  for (const auto& lanes : lc.identities) {
    for (unsigned b = 0; b < width; ++b) {
      for (const std::size_t j : lanes) {
        // As in share_input_bits: the engine XOR-shares these bits before
        // anything leaves the party.
        bits.push_back(((shares[j].unwrap_for_wire() >> b) & 1) != 0);
      }
    }
    for (unsigned b = 0; b < coin_bits; ++b) {
      for (const std::size_t j : lanes) {
        bits.push_back(((coins[j] >> b) & 1) != 0);
      }
    }
  }
  return bits;
}

Circuit build_count_below_circuit(const CountBelowSpec& spec) {
  check_spec(spec);
  const std::size_t n = spec.thresholds.size();
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  // Per identity: share inputs, the share sum and the threshold test; then
  // the tail.
  const std::size_t per_identity = spec.c * width +
                                   (spec.c - 1) * add_mod_wires(width, spec.q) +
                                   compare_wires(width);

  CircuitBuilder cb;
  cb.reserve(n * per_identity + popcount_wires(n) +
             encoder_wires(n, max_of(spec.xi_ranks)) + kSlackWires);
  const auto shares = declare_share_inputs(cb, spec.c, n, width);
  std::vector<Wire> common_bits;
  common_bits.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    common_bits.push_back(
        count_below_block(cb, shares[j], spec.q, spec.thresholds[j]));
  }
  count_below_tail(cb, common_bits, spec.xi_ranks);
  return cb.take();
}

LaneCircuits build_count_below_lanes(const CountBelowSpec& spec) {
  check_spec(spec);
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  LaneCircuits lc = lanes_by_threshold(spec.thresholds, [&](std::uint64_t t) {
    CircuitBuilder cb;
    const auto shares = declare_share_inputs(cb, spec.c, 1, width);
    cb.output(count_below_block(cb, shares[0], spec.q, t));
    return cb.take();
  });
  // The tail reads the common bits in (block, lane) order.
  const std::size_t n = spec.thresholds.size();
  CircuitBuilder cb;
  cb.reserve(n + popcount_wires(n) + encoder_wires(n, max_of(spec.xi_ranks)) +
             kSlackWires);
  std::vector<Wire> common_bits;
  std::vector<std::uint64_t> ranks;
  for (const auto& lanes : lc.identities) {
    for (const std::size_t j : lanes) {
      // Owner is nominal: the engine feeds these from the blocks' outputs.
      common_bits.push_back(cb.input_bit(0));
      if (!spec.xi_ranks.empty()) ranks.push_back(spec.xi_ranks[j]);
    }
  }
  count_below_tail(cb, common_bits, ranks);
  lc.tail = cb.take();
  return lc;
}

CountBelowOutput decode_count_below(const CountBelowSpec& spec,
                                    const std::vector<bool>& output_bits) {
  const std::size_t n = spec.thresholds.size();
  const unsigned count_width = bit_width_for(n);
  const unsigned rank_width =
      spec.xi_ranks.empty() ? 0 : rank_output_width(spec.xi_ranks);
  require(output_bits.size() == count_width + rank_width,
          "decode_count_below: output size mismatch");
  CountBelowOutput out;
  std::size_t pos = 0;
  for (unsigned b = 0; b < count_width; ++b) {
    if (output_bits[pos++]) out.common_count |= std::uint64_t{1} << b;
  }
  for (unsigned b = 0; b < rank_width; ++b) {
    if (output_bits[pos++]) out.max_xi_rank |= std::uint64_t{1} << b;
  }
  return out;
}

CountBelowOutput plain_count_below(
    const CountBelowSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party) {
  require(shares_per_party.size() == spec.c,
          "plain_count_below: wrong party count");
  const std::size_t n = spec.thresholds.size();
  CountBelowOutput out;
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t sum = 0;
    for (const auto& shares : shares_per_party) {
      require(shares.size() == n, "plain_count_below: share vector size");
      sum = (sum + shares[j]) % spec.q;
    }
    if (sum >= spec.thresholds[j]) {
      ++out.common_count;
      if (!spec.xi_ranks.empty()) {
        out.max_xi_rank = std::max(out.max_xi_rank, spec.xi_ranks[j]);
      }
    }
  }
  return out;
}

Circuit build_mix_reveal_circuit(const MixRevealSpec& spec) {
  check_spec(spec);
  const std::size_t n = spec.thresholds.size();
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  // Per identity: share and coin inputs, the share sum, the threshold test,
  // the joint coin and its test, the mix bit and the masked value.
  const std::size_t coin = spec.coin_bits;
  const std::size_t per_identity =
      spec.c * (width + coin) + (spec.c - 1) * add_mod_wires(width, spec.q) +
      compare_wires(width) + (spec.c - 1) * coin +
      compare_wires(spec.coin_bits + 1) + 4 + width;

  CircuitBuilder cb;
  cb.reserve(n * per_identity + kSlackWires);
  const auto shares = declare_share_inputs(cb, spec.c, n, width);
  std::vector<WireVec> sums;
  sums.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    sums.push_back(sum_shares(cb, shares[j], spec.q));
  }
  append_mix_reveal_outputs(cb, spec.c, sums, spec.thresholds, spec.lambda,
                            spec.coin_bits);
  return cb.take();
}

LaneCircuits build_mix_reveal_lanes(const MixRevealSpec& spec) {
  check_spec(spec);
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  return lanes_by_threshold(spec.thresholds, [&](std::uint64_t t) {
    // The scalar circuit for one identity of threshold t.
    CircuitBuilder cb;
    const auto shares = declare_share_inputs(cb, spec.c, 1, width);
    const std::uint64_t threshold[] = {t};
    append_mix_reveal_outputs(cb, spec.c, {sum_shares(cb, shares[0], spec.q)},
                              threshold, spec.lambda, spec.coin_bits);
    return cb.take();
  });
}

std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const std::vector<bool>& output_bits) {
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  const std::size_t n = spec.thresholds.size();
  require(output_bits.size() == n * (1 + width),
          "decode_mix_reveal: output size mismatch");
  std::vector<MixRevealResult> results(n);
  std::size_t pos = 0;
  for (std::size_t j = 0; j < n; ++j) {
    results[j].mixed = output_bits[pos++];
    std::uint64_t value = 0;
    for (unsigned b = 0; b < width; ++b) {
      if (output_bits[pos++]) value |= std::uint64_t{1} << b;
    }
    results[j].frequency = value;
  }
  return results;
}

std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const LaneCircuits& lc,
    const std::vector<bool>& output_bits) {
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  const std::size_t n = spec.thresholds.size();
  require(output_bits.size() == n * (1 + width),
          "decode_mix_reveal: output size mismatch");
  std::vector<MixRevealResult> results(n);
  std::size_t pos = 0;
  // Block by block: the mix bit of every lane, then each value bit.
  for (const auto& lanes : lc.identities) {
    for (const std::size_t j : lanes) results[j].mixed = output_bits[pos++];
    for (unsigned b = 0; b < width; ++b) {
      for (const std::size_t j : lanes) {
        if (output_bits[pos++]) results[j].frequency |= std::uint64_t{1} << b;
      }
    }
  }
  return results;
}

std::vector<MixRevealResult> plain_mix_reveal(
    const MixRevealSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party,
    std::span<const std::vector<std::uint64_t>> rand_words) {
  require(shares_per_party.size() == spec.c, "plain_mix_reveal: party count");
  require(rand_words.size() == spec.c, "plain_mix_reveal: rand count");
  const std::size_t n = spec.thresholds.size();
  const std::uint64_t coin_threshold =
      lambda_threshold(spec.lambda, spec.coin_bits);
  const std::uint64_t coin_mask =
      (std::uint64_t{1} << spec.coin_bits) - 1;
  std::vector<MixRevealResult> results(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint64_t sum = 0;
    std::uint64_t joint = 0;
    for (std::size_t p = 0; p < spec.c; ++p) {
      sum = (sum + shares_per_party[p][j]) % spec.q;
      joint ^= rand_words[p][j] & coin_mask;
    }
    const bool common = sum >= spec.thresholds[j];
    const bool coin = joint < coin_threshold;
    results[j].mixed = common || coin;
    results[j].frequency = results[j].mixed ? 0 : sum;
  }
  return results;
}

Circuit build_pure_mpc_circuit(const PureMpcSpec& spec) {
  require(spec.m >= 2, "PureMpc: need at least 2 providers");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "PureMpc: need at least one identity");

  CircuitBuilder cb;
  // Membership bit inputs, party-major: bits[i][j].
  std::vector<std::vector<Wire>> bits(spec.m);
  for (std::size_t i = 0; i < spec.m; ++i) {
    bits[i].reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      bits[i].push_back(cb.input_bit(static_cast<std::uint32_t>(i)));
    }
  }
  const unsigned width = bit_width_for(spec.m);
  std::vector<WireVec> sums;
  std::vector<Wire> common_bits;
  sums.reserve(n);
  common_bits.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Wire> column(spec.m);
    for (std::size_t i = 0; i < spec.m; ++i) column[i] = bits[i][j];
    const WireVec sum = fit_width(cb, cb.popcount(column), width);
    sums.push_back(sum);
    common_bits.push_back(cb.ge_const(sum, spec.thresholds[j]));
  }
  cb.output_vec(fit_width(cb, cb.popcount(common_bits), bit_width_for(n)));
  if (spec.include_mixing) {
    append_mix_reveal_outputs(cb, spec.m, sums, spec.thresholds, spec.lambda,
                              spec.coin_bits);
  }
  return cb.take();
}

PureMpcResult decode_pure_mpc(const PureMpcSpec& spec,
                              const std::vector<bool>& output_bits) {
  const std::size_t n = spec.thresholds.size();
  const unsigned count_width = bit_width_for(n);
  const unsigned width = bit_width_for(spec.m);
  const std::size_t expected =
      count_width + (spec.include_mixing ? n * (1 + width) : 0);
  require(output_bits.size() == expected,
          "decode_pure_mpc: output size mismatch");
  PureMpcResult result;
  std::size_t pos = 0;
  for (unsigned b = 0; b < count_width; ++b) {
    if (output_bits[pos++]) result.common_count |= std::uint64_t{1} << b;
  }
  if (!spec.include_mixing) return result;
  result.identities.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    result.identities[j].mixed = output_bits[pos++];
    std::uint64_t value = 0;
    for (unsigned b = 0; b < width; ++b) {
      if (output_bits[pos++]) value |= std::uint64_t{1} << b;
    }
    result.identities[j].frequency = value;
  }
  return result;
}

}  // namespace eppi::mpc
