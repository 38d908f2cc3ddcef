#include "mpc/beaver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace eppi::mpc {

std::uint64_t load_packed_word(const std::vector<std::uint8_t>& v,
                               std::uint64_t first, unsigned n) noexcept {
  const auto byte = static_cast<std::size_t>(first / 8);
  const auto offset = static_cast<unsigned>(first % 8);
  if (std::endian::native == std::endian::little && n > 0 &&
      byte + 8 <= v.size()) {
    // One unaligned word load, plus the ninth byte when the range spills.
    std::uint64_t word;
    std::memcpy(&word, v.data() + byte, 8);
    word >>= offset;
    if (offset + n > 64) word |= std::uint64_t{v[byte + 8]} << (64 - offset);
    return n == 64 ? word : word & ((std::uint64_t{1} << n) - 1);
  }
  std::uint64_t word = 0;
  for (unsigned got = 0; got < n;) {
    const unsigned off = static_cast<unsigned>(first % 8);
    const unsigned take = std::min(8 - off, n - got);
    const unsigned bits = (v[first / 8] >> off) & ((1u << take) - 1);
    word |= static_cast<std::uint64_t>(bits) << got;
    got += take;
    first += take;
  }
  return word;
}

void store_packed_word(std::vector<std::uint8_t>& v, std::uint64_t first,
                       std::uint64_t word, unsigned n) noexcept {
  if (std::endian::native == std::endian::little && n == 64 &&
      first % 8 == 0) {
    std::memcpy(v.data() + first / 8, &word, 8);
    return;
  }
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
  std::vector<std::array<std::uint64_t, 3>> block(n_parties);
  for (std::uint64_t base = 0; base < count; base += 64) {
    const auto lanes = static_cast<unsigned>(std::min<std::uint64_t>(
        64, count - base));
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    // One draw per 64 triple bits: the a and b words, then each share word.
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    std::array<std::uint64_t, 3> last{a, b, a & b};
    for (std::size_t p = 0; p + 1 < n_parties; ++p) {
      for (std::size_t part = 0; part < 3; ++part) {
        block[p][part] = rng.next() & mask;
        last[part] ^= block[p][part];
      }
    }
    block[n_parties - 1] = last;
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
