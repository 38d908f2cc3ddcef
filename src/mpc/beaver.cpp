#include "mpc/beaver.h"

#include <algorithm>
#include <array>

namespace eppi::mpc {

std::uint64_t load_packed_word(const std::vector<std::uint8_t>& v,
                               std::uint64_t first, unsigned n) noexcept {
  std::uint64_t word = 0;
  for (unsigned got = 0; got < n;) {
    const unsigned offset = static_cast<unsigned>(first % 8);
    const unsigned take = std::min(8 - offset, n - got);
    const unsigned bits = (v[first / 8] >> offset) & ((1u << take) - 1);
    word |= static_cast<std::uint64_t>(bits) << got;
    got += take;
    first += take;
  }
  return word;
}

void store_packed_word(std::vector<std::uint8_t>& v, std::uint64_t first,
                       std::uint64_t word, unsigned n) noexcept {
  while (n > 0) {
    const unsigned offset = static_cast<unsigned>(first % 8);
    const unsigned take = std::min(8 - offset, n);
    const auto mask = static_cast<std::uint8_t>(((1u << take) - 1) << offset);
    std::uint8_t& byte = v[first / 8];
    byte = static_cast<std::uint8_t>((byte & ~mask) |
                                     ((word << offset) & mask));
    word >>= take;
    first += take;
    n -= take;
  }
}

std::vector<TripleShares> deal_triples(std::size_t n_parties,
                                       std::uint64_t count, eppi::Rng& rng) {
  const std::size_t bytes = packed_size(count);
  // Generate into raw packed buffers, then seal them under the Secret taint.
  std::vector<std::array<std::vector<std::uint8_t>, 3>> raw(n_parties);
  for (auto& party : raw) {
    for (auto& buf : party) buf.assign(bytes, 0);
  }
  // One fair coin per draw: top bit clear, the outcome of bernoulli(0.5).
  const auto coin = [&rng] { return ~rng.next() >> 63; };
  // (a, b, c) lane words of one 64-triple block, per party.
  std::vector<std::array<std::uint64_t, 3>> block(n_parties);
  for (std::uint64_t base = 0; base < count; base += 64) {
    const auto lanes = static_cast<unsigned>(std::min<std::uint64_t>(
        64, count - base));
    for (auto& words : block) words = {};
    for (unsigned k = 0; k < lanes; ++k) {
      const std::uint64_t a = coin();
      const std::uint64_t b = coin();
      std::array<std::uint64_t, 3> last{a, b, a & b};
      for (std::size_t p = 0; p + 1 < n_parties; ++p) {
        for (std::size_t part = 0; part < 3; ++part) {
          const std::uint64_t s = coin();
          block[p][part] |= s << k;
          last[part] ^= s;
        }
      }
      for (std::size_t part = 0; part < 3; ++part) {
        block[n_parties - 1][part] |= last[part] << k;
      }
    }
    for (std::size_t p = 0; p < n_parties; ++p) {
      for (std::size_t part = 0; part < 3; ++part) {
        store_packed_word(raw[p][part], base, block[p][part], lanes);
      }
    }
  }
  std::vector<TripleShares> shares(n_parties);
  for (std::size_t p = 0; p < n_parties; ++p) {
    shares[p].a = eppi::SecretBytes(std::move(raw[p][0]));
    shares[p].b = eppi::SecretBytes(std::move(raw[p][1]));
    shares[p].c = eppi::SecretBytes(std::move(raw[p][2]));
    shares[p].count = count;
  }
  return shares;
}

}  // namespace eppi::mpc
