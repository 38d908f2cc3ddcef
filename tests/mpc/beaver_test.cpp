#include "mpc/beaver.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eppi::mpc {
namespace {

TEST(PackedBitsTest, SetGetRoundTrip) {
  std::vector<std::uint8_t> buf(packed_size(20), 0);
  set_packed_bit(buf, 0, true);
  set_packed_bit(buf, 7, true);
  set_packed_bit(buf, 8, true);
  set_packed_bit(buf, 19, true);
  EXPECT_TRUE(get_packed_bit(buf, 0));
  EXPECT_FALSE(get_packed_bit(buf, 1));
  EXPECT_TRUE(get_packed_bit(buf, 7));
  EXPECT_TRUE(get_packed_bit(buf, 8));
  EXPECT_TRUE(get_packed_bit(buf, 19));
  set_packed_bit(buf, 8, false);
  EXPECT_FALSE(get_packed_bit(buf, 8));
}

TEST(PackedBitsTest, PackedSize) {
  EXPECT_EQ(packed_size(0), 0u);
  EXPECT_EQ(packed_size(1), 1u);
  EXPECT_EQ(packed_size(8), 1u);
  EXPECT_EQ(packed_size(9), 2u);
}

class TripleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TripleSweep, TriplesSatisfyBeaverRelation) {
  const std::size_t n_parties = GetParam();
  eppi::Rng rng(n_parties);
  constexpr std::uint64_t kCount = 500;
  const auto shares = deal_triples(n_parties, kCount, rng);
  ASSERT_EQ(shares.size(), n_parties);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    bool a = false;
    bool b = false;
    bool c = false;
    // The test plays the dealer and every party, so opening is legitimate.
    for (const auto& s : shares) {
      a ^= s.a_lanes(i, 1).lane(0).reveal();
      b ^= s.b_lanes(i, 1).lane(0).reveal();
      c ^= s.c_lanes(i, 1).lane(0).reveal();
    }
    ASSERT_EQ(c, a && b) << "triple " << i;
  }
}

TEST_P(TripleSweep, TripleBitsAreBalanced) {
  const std::size_t n_parties = GetParam();
  eppi::Rng rng(n_parties + 100);
  constexpr std::uint64_t kCount = 20000;
  const auto shares = deal_triples(n_parties, kCount, rng);
  std::uint64_t a_ones = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    bool a = false;
    for (const auto& s : shares) a ^= s.a_lanes(i, 1).lane(0).reveal();
    a_ones += a ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(a_ones) / kCount, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Parties, TripleSweep, ::testing::Values(2, 3, 5, 8));

TEST(TripleTest, ZeroTriplesProduceEmptyShares) {
  eppi::Rng rng(1);
  const auto shares = deal_triples(3, 0, rng);
  ASSERT_EQ(shares.size(), 3u);
  for (const auto& s : shares) EXPECT_EQ(s.count, 0u);
}

}  // namespace
}  // namespace eppi::mpc
