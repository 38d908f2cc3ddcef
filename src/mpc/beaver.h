// Beaver multiplication-triple preprocessing for GMW AND gates.
//
// Each AND gate consumes one Boolean Beaver triple (a, b, ab) XOR-shared
// among the session parties. We generate triples in a preprocessing phase
// run by a designated dealer party (the session's first party), which is a
// standard simulation of an offline phase.
//
// SUBSTITUTION NOTE (see DESIGN.md §2): FairplayMP realizes secure gates via
// a BMR garbling protocol; production GMW deployments generate triples with
// oblivious transfer so that no single party knows a whole triple. Here the
// dealer knows the triples it deals — acceptable in the semi-honest,
// performance-evaluation setting of the paper, and the *online* cost
// structure (one masked opening per AND gate per layer, which is what Fig. 6
// measures) is identical. The dealer traffic is metered separately so
// benches can report online-only and total costs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "secret/secret.h"

namespace eppi::mpc {

// Bit-packing helpers shared with the GMW engine's message encoding: bit i
// of a packed buffer is bit i % 8 of byte i / 8.
inline std::size_t packed_size(std::uint64_t bits) noexcept {
  return static_cast<std::size_t>((bits + 7) / 8);
}

inline void set_packed_bit(std::vector<std::uint8_t>& v, std::uint64_t i,
                           bool bit) noexcept {
  const auto mask = static_cast<std::uint8_t>(1u << (i % 8));
  v[i / 8] = static_cast<std::uint8_t>(bit ? (v[i / 8] | mask)
                                           : (v[i / 8] & ~mask));
}

inline bool get_packed_bit(const std::vector<std::uint8_t>& v,
                           std::uint64_t i) noexcept {
  return (v[i / 8] >> (i % 8)) & 1;
}

// Bits [first, first + n) of a packed buffer as one word, bit k of the word
// holding bit first + k; n <= 64 and the range must lie inside `v`.
std::uint64_t load_packed_word(const std::vector<std::uint8_t>& v,
                               std::uint64_t first, unsigned n) noexcept;

// Writes the low n <= 64 bits of `word` to bits [first, first + n).
void store_packed_word(std::vector<std::uint8_t>& v, std::uint64_t first,
                       std::uint64_t word, unsigned n) noexcept;

// One party's XOR shares of a batch of bit triples, packed bitwise. The
// buffers carry the Secret taint; the accessors hand out tainted
// SecretLanes words, so triple material cannot be logged or compared
// either.
struct TripleShares {
  eppi::SecretBytes a;  // packed bits, count bits valid
  eppi::SecretBytes b;
  eppi::SecretBytes c;
  std::uint64_t count = 0;

  // Triples [first, first + n) as lanes 0..n-1 of one word (n <= 64).
  eppi::SecretLanes a_lanes(std::uint64_t first, unsigned n) const noexcept {
    return lanes(a, first, n);
  }
  eppi::SecretLanes b_lanes(std::uint64_t first, unsigned n) const noexcept {
    return lanes(b, first, n);
  }
  eppi::SecretLanes c_lanes(std::uint64_t first, unsigned n) const noexcept {
    return lanes(c, first, n);
  }

 private:
  // Share-local unpacking, not a leak: the bits go straight back under
  // taint.
  static eppi::SecretLanes lanes(const eppi::SecretBytes& v,
                                 std::uint64_t first, unsigned n) noexcept {
    return eppi::SecretLanes(
        eppi::BitLanes{load_packed_word(v.unwrap_for_wire(), first, n)});
  }
};

// Dealer-side generation: returns one TripleShares per party such that for
// every triple index, XOR of a-shares & XOR of b-shares == XOR of c-shares.
//
// Draw order (pinned: party 0 deals with its own Rng, whose later draws
// feed the MixAndReveal coins): per block of 64 triples (the last block may
// be shorter), one Rng::next() per word — the a word, the b word, then the
// a, b and c share words of parties 0..n-2; triple base + k takes bit k of
// each word, and the bits past a short block are dropped. The last party's
// shares close the XOR sums.
std::vector<TripleShares> deal_triples(std::size_t n_parties,
                                       std::uint64_t count, eppi::Rng& rng);

}  // namespace eppi::mpc
