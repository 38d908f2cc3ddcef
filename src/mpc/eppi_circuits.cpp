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

// Declares the share inputs for all parties (party-major) and returns
// shares[i][j] = WireVec of s(i,j).
std::vector<std::vector<WireVec>> declare_share_inputs(CircuitBuilder& cb,
                                                       std::size_t c,
                                                       std::size_t n,
                                                       unsigned width) {
  std::vector<std::vector<WireVec>> shares(c);
  for (std::size_t i = 0; i < c; ++i) {
    shares[i].reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      shares[i].push_back(cb.input_bits(static_cast<std::uint32_t>(i), width));
    }
  }
  return shares;
}

// Reconstructs S_j = sum of c shares mod q inside the circuit.
WireVec sum_shares(CircuitBuilder& cb,
                   const std::vector<std::vector<WireVec>>& shares,
                   std::size_t j, std::uint64_t q) {
  WireVec sum = shares[0][j];
  for (std::size_t i = 1; i < shares.size(); ++i) {
    sum = cb.add_mod(sum, shares[i][j], q);
  }
  return sum;
}

std::uint64_t lambda_threshold(double lambda, unsigned coin_bits) {
  require(lambda >= 0.0 && lambda <= 1.0,
          "eppi_circuits: lambda must be in [0,1]");
  require(coin_bits >= 1 && coin_bits <= 62,
          "eppi_circuits: coin_bits out of range");
  const double scaled = lambda * static_cast<double>(std::uint64_t{1} << coin_bits);
  return static_cast<std::uint64_t>(std::llround(scaled));
}

// Builds per-identity mix bit + masked value outputs from reconstructed
// frequency S_j. Coin inputs are declared here (party-major order is
// preserved because this is called after all share inputs are declared and
// declares all coins before using them).
void append_mix_reveal_outputs(CircuitBuilder& cb, std::size_t n_parties,
                               const std::vector<WireVec>& sums,
                               std::span<const std::uint64_t> thresholds,
                               double lambda, unsigned coin_bits) {
  const std::size_t n = sums.size();
  // Coin inputs, party-major.
  std::vector<std::vector<WireVec>> coins(n_parties);
  for (std::size_t p = 0; p < n_parties; ++p) {
    coins[p].reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      coins[p].push_back(
          cb.input_bits(static_cast<std::uint32_t>(p), coin_bits));
    }
  }
  const std::uint64_t coin_threshold = lambda_threshold(lambda, coin_bits);
  for (std::size_t j = 0; j < n; ++j) {
    const Wire common = cb.ge_const(sums[j], thresholds[j]);
    WireVec joint = coins[0][j];
    for (std::size_t p = 1; p < n_parties; ++p) {
      joint = cb.xor_vec(joint, coins[p][j]);
    }
    const Wire coin = cb.lt_const(joint, coin_threshold);
    const Wire mix = cb.Or(common, coin);
    cb.output(mix);
    const Wire keep = cb.Not(mix);
    for (const Wire bit : sums[j]) cb.output(cb.And(bit, keep));
  }
}

}  // namespace

namespace {

// Pads or truncates to an exact width; truncation is only used where the
// value provably fits (e.g. a count of n bits fits in bit_width_for(n)).
WireVec fit_width(CircuitBuilder& cb, WireVec v, unsigned width) {
  while (v.size() < width) v.push_back(cb.zero());
  v.resize(width);
  return v;
}

// Appends the count output and, when ranks are given, the secure max of
// ranks[j] over identities whose common bit is set.
void append_count_and_rank_outputs(CircuitBuilder& cb,
                                   const std::vector<Wire>& common_bits,
                                   std::span<const std::uint64_t> ranks) {
  const unsigned count_width = bit_width_for(common_bits.size());
  const WireVec count =
      fit_width(cb, cb.popcount(common_bits), count_width);
  cb.output_vec(count);
  if (ranks.empty()) return;
  require(ranks.size() == common_bits.size(),
          "eppi_circuits: xi_ranks size mismatch");
  std::uint64_t max_rank = 0;
  for (const std::uint64_t r : ranks) max_rank = std::max(max_rank, r);
  const unsigned rank_width = bit_width_for(max_rank);
  // Selected value: rank_j if common else 0 — constant bits AND the common
  // bit, which folds to at most one AND per set rank bit.
  std::vector<WireVec> selected;
  selected.reserve(ranks.size());
  for (std::size_t j = 0; j < ranks.size(); ++j) {
    const WireVec rank_bits = cb.constant_bits(ranks[j], rank_width);
    WireVec sel(rank_width);
    for (unsigned b = 0; b < rank_width; ++b) {
      sel[b] = cb.And(rank_bits[b], common_bits[j]);
    }
    selected.push_back(std::move(sel));
  }
  // Max tree.
  while (selected.size() > 1) {
    std::vector<WireVec> next;
    next.reserve((selected.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < selected.size(); i += 2) {
      const Wire a_lt_b = cb.lt(selected[i], selected[i + 1]);
      next.push_back(cb.mux_vec(a_lt_b, selected[i + 1], selected[i]));
    }
    if (selected.size() % 2 == 1) next.push_back(std::move(selected.back()));
    selected = std::move(next);
  }
  cb.output_vec(selected[0]);
}

unsigned rank_output_width(std::span<const std::uint64_t> ranks) {
  std::uint64_t max_rank = 0;
  for (const std::uint64_t r : ranks) max_rank = std::max(max_rank, r);
  return bit_width_for(max_rank);
}

}  // namespace

Circuit build_count_below_circuit(const CountBelowSpec& spec) {
  require(spec.c >= 2, "CountBelow: need at least 2 parties");
  require(spec.q >= 2, "CountBelow: modulus required");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "CountBelow: need at least one identity");
  const unsigned width = eppi::secret::ModRing(spec.q).bit_width();
  // Per identity: share inputs, the share sum, the threshold test, and the
  // rank selection plus its share of the max tree (and + lt + mux).
  const std::size_t rank_width =
      spec.xi_ranks.empty() ? 0 : rank_output_width(spec.xi_ranks);
  const std::size_t per_identity =
      spec.c * width + (spec.c - 1) * add_mod_wires(width, spec.q) +
      compare_wires(width) + 10 * rank_width;

  CircuitBuilder cb;
  cb.reserve(n * per_identity + popcount_wires(n) + kSlackWires);
  const auto shares = declare_share_inputs(cb, spec.c, n, width);
  std::vector<Wire> common_bits;
  common_bits.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const WireVec sum = sum_shares(cb, shares, j, spec.q);
    common_bits.push_back(cb.ge_const(sum, spec.thresholds[j]));
  }
  append_count_and_rank_outputs(cb, common_bits, spec.xi_ranks);
  return cb.take();
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
  require(spec.c >= 2, "MixReveal: need at least 2 parties");
  require(spec.q >= 2, "MixReveal: modulus required");
  const std::size_t n = spec.thresholds.size();
  require(n >= 1, "MixReveal: need at least one identity");
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
    sums.push_back(sum_shares(cb, shares, j, spec.q));
  }
  append_mix_reveal_outputs(cb, spec.c, sums, spec.thresholds, spec.lambda,
                            spec.coin_bits);
  return cb.take();
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
