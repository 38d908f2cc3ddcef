// Circuit generators for the secure stages of ε-PPI construction.
//
// Three functionalities, matching DESIGN.md §3:
//
//  * CountBelow (paper Algorithm 2): from the c coordinators' SecSumShare
//    vectors, reconstruct each identity's frequency sum S_j inside the
//    circuit and count how many identities are "common", i.e. S_j >= t_j for
//    the per-identity public threshold t_j (the frequency at which the
//    chosen β-policy saturates to β* >= 1). Only the count is opened.
//
//  * MixAndReveal: the identity-mixing stage (paper Eq. 6). Per identity,
//    computes the common bit b_j = (S_j >= t_j), a secret coin
//    coin_j = (r_j < λ·2^w) from XOR-combined per-party randomness, and
//    mix_j = b_j | coin_j. Opens mix_j and, only when mix_j = 0, the value
//    S_j (as S_j & ~mix_j per bit); for mixed/common identities the opened
//    value is 0 so the true frequency of a common identity never leaves the
//    MPC — this is exactly what defeats the common-identity attack.
//
//  * PureMpc (the paper's comparison baseline, §V-B): the same end-to-end
//    functionality computed directly from all m providers' raw membership
//    bits inside one big circuit (frequency via popcount instead of a
//    SecSumShare pre-stage), so circuit size and party count grow with m.
//
// CountBelow and MixAndReveal each come in two forms built from one
// per-identity block and (CountBelow) one tail: the scalar circuit (every
// identity's block, then the tail), used by the garbled backend, the Fig. 6
// benches and plain_eval; and the lane form (LaneCircuits) the GMW engine
// runs one identity per bit lane. All generators also have plain reference
// implementations used by tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mpc/circuit.h"
#include "secret/secret.h"

namespace eppi::mpc {

// Flattens a coordinator's SecSumShare share vector into MPC input bits
// (identity-major, low bit first — must match declare_share_inputs in
// eppi_circuits.cpp). This is the sanctioned share→circuit transition: the
// returned bits are consumed by the MPC engine's input phase, which XOR-
// shares them before anything leaves the party.
std::vector<bool> share_input_bits(std::span<const eppi::SecretU64> shares,
                                   unsigned width);

struct CountBelowSpec {
  std::size_t c = 3;                     // MPC parties (coordinators)
  std::uint64_t q = 0;                   // ring modulus (required, >= 2)
  std::vector<std::uint64_t> thresholds; // t_j per identity, in [0, q)
  // Optional: public per-identity ranks (e.g. each identity's ε rank in the
  // sorted public ε list). When non-empty the circuit additionally outputs
  // max over common identities of xi_ranks[j] (0 when none is common) —
  // this is how the ε-PPI constructor obtains ξ = max ε over the (secret)
  // common set without revealing which identities are common. A priority
  // encoder over the ranks in ascending order computes it.
  std::vector<std::uint64_t> xi_ranks;
};

struct CountBelowOutput {
  std::uint64_t common_count = 0;
  std::uint64_t max_xi_rank = 0;  // 0 when xi_ranks was empty or no commons
};

// Inputs: for party i in [0,c), for identity j in [0,n): bit_width(q) bits of
// share s(i,j), declared party-major. Outputs: the common count as
// bit_width(n) bits, then (iff xi_ranks non-empty) the selected max rank as
// bit_width(max rank) bits.
Circuit build_count_below_circuit(const CountBelowSpec& spec);

// Decodes the opened outputs of either form (the lane form's tail has the
// scalar circuit's outputs).
CountBelowOutput decode_count_below(const CountBelowSpec& spec,
                                    const std::vector<bool>& output_bits);

// Plain reference for the same functionality.
CountBelowOutput plain_count_below(
    const CountBelowSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party);

// The lane form of a functionality, for run_gmw_party's lane programs: one
// block template per distinct threshold (ascending), each evaluated on the
// identities that share that threshold, one per bit lane. A block is the
// scalar circuit's per-identity block, so a block's AND gates and layers
// are exactly those of each of its identities in the scalar circuit.
// CountBelow adds the tail (popcount and ξ encoder), whose input wires take
// the blocks' common bits in (block, lane) order.
struct LaneCircuits {
  std::vector<Circuit> blocks;
  // identities[g][l]: the identity on lane l of block g (ascending).
  std::vector<std::vector<std::size_t>> identities;
  std::optional<Circuit> tail;

  // Points into `blocks`: valid while this object lives.
  std::vector<CircuitGroup> groups() const;
  const Circuit* tail_circuit() const noexcept {
    return tail ? &*tail : nullptr;
  }
  CircuitStats stats() const;
};

LaneCircuits build_count_below_lanes(const CountBelowSpec& spec);

// One party's lane-program input bits: block by block, each of the party's
// `width` share bits and then its `coin_bits` coin bits (MixAndReveal; the
// low bits of coins[j]), each for every lane in lane order — the order
// run_gmw_party reads them. shares[j] is the party's share of identity j.
std::vector<bool> lane_input_bits(const LaneCircuits& lc,
                                  std::span<const eppi::SecretU64> shares,
                                  unsigned width,
                                  std::span<const std::uint64_t> coins = {},
                                  unsigned coin_bits = 0);

struct MixRevealSpec {
  std::size_t c = 3;
  std::uint64_t q = 0;
  std::vector<std::uint64_t> thresholds;
  double lambda = 0.0;      // mixing probability for non-common identities
  unsigned coin_bits = 16;  // resolution of the secure λ-coin
};

// Inputs, party-major: party i contributes per identity j the share bits of
// s(i,j) followed (after all shares) by coin_bits random bits per identity.
// Outputs per identity j (identity-major): [mix_j, S_j & ~mix_j bits].
Circuit build_mix_reveal_circuit(const MixRevealSpec& spec);

struct MixRevealResult {
  bool mixed = false;          // published with β = 1
  std::uint64_t frequency = 0; // opened S_j; 0 (hidden) when mixed
};

LaneCircuits build_mix_reveal_lanes(const MixRevealSpec& spec);

// Parses the opened output bits of a MixAndReveal circuit, or of its lane
// form `lc`; results are in identity order either way.
std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const std::vector<bool>& output_bits);
std::vector<MixRevealResult> decode_mix_reveal(
    const MixRevealSpec& spec, const LaneCircuits& lc,
    const std::vector<bool>& output_bits);

// Plain reference. rand_words[p][j] is party p's coin input for identity j
// (low coin_bits bits used).
std::vector<MixRevealResult> plain_mix_reveal(
    const MixRevealSpec& spec,
    std::span<const std::vector<std::uint64_t>> shares_per_party,
    std::span<const std::vector<std::uint64_t>> rand_words);

struct PureMpcSpec {
  std::size_t m = 0;                     // provider parties
  std::vector<std::uint64_t> thresholds; // t_j per identity, in [0, m]
  double lambda = 0.0;
  unsigned coin_bits = 16;
  // false reproduces the paper's measured pure-MPC baseline (count only, no
  // per-identity mixing outputs and no coin inputs).
  bool include_mixing = true;
};

// Inputs, party-major: party i contributes one membership bit per identity,
// followed by coin_bits random bits per identity. Outputs: the common count
// (bit_width(n) bits) followed by per-identity [mix_j, S_j & ~mix_j].
Circuit build_pure_mpc_circuit(const PureMpcSpec& spec);

struct PureMpcResult {
  std::uint64_t common_count = 0;
  std::vector<MixRevealResult> identities;
};

PureMpcResult decode_pure_mpc(const PureMpcSpec& spec,
                              const std::vector<bool>& output_bits);

}  // namespace eppi::mpc
