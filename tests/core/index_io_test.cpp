#include "core/index_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/crc32c.h"
#include "common/error.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

PpiIndex sample_index(std::size_t m, std::size_t n, std::uint64_t seed) {
  eppi::Rng rng(seed);
  eppi::BitMatrix matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) matrix.set(i, j, true);
    }
  }
  return PpiIndex(std::move(matrix));
}

std::vector<std::uint8_t> sample_bytes(std::size_t m, std::size_t n,
                                       std::uint64_t seed) {
  return save_index_v3_bytes(PostingIndex(sample_index(m, n, seed)), nullptr);
}

TEST(IndexIoTest, RoundTripPreservesMatrix) {
  const PpiIndex original = sample_index(17, 130, 1);  // cols span 3 words
  std::stringstream ss;
  save_index_v3(ss, PostingIndex(original), nullptr);
  const PpiIndex loaded = load_index(ss);
  EXPECT_EQ(loaded.matrix(), original.matrix());
}

TEST(IndexIoTest, RoundTripEmptyIndex) {
  const PpiIndex original{eppi::BitMatrix(3, 4)};
  std::stringstream ss;
  save_index_v3(ss, PostingIndex(original), nullptr);
  const PpiIndex loaded = load_index(ss);
  EXPECT_EQ(loaded.providers(), 3u);
  EXPECT_EQ(loaded.identities(), 4u);
  EXPECT_EQ(loaded.matrix().popcount(), 0u);
}

TEST(IndexIoTest, QueriesSurviveRoundTrip) {
  const PpiIndex original = sample_index(20, 10, 2);
  std::stringstream ss;
  save_index_v3(ss, PostingIndex(original), nullptr);
  const PpiIndex loaded = load_index(ss);
  for (IdentityId j = 0; j < 10; ++j) {
    EXPECT_EQ(loaded.query(j), original.query(j));
  }
}

TEST(IndexIoTest, BadMagicRejected) {
  std::stringstream ss("not-an-index-file-at-all");
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

TEST(IndexIoTest, TruncatedFileRejected) {
  const auto full = sample_bytes(8, 8, 3);
  std::stringstream truncated(
      std::string(full.begin(), full.begin() + full.size() / 2));
  EXPECT_THROW(load_index(truncated), eppi::SerializeError);
}

TEST(IndexIoTest, ImplausibleDimensionsRejected) {
  // rows = 2^40 under a VALID header checksum: the bound, not the CRC,
  // must reject it, and before any allocation.
  auto bytes = sample_bytes(4, 10, 3);
  const std::uint64_t rows = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<std::uint8_t>(rows >> (8 * i));
  }
  const std::uint32_t crc =
      eppi::crc32c_mask(eppi::crc32c(std::span(bytes).subspan(0, 36)));
  for (int i = 0; i < 4; ++i) {
    bytes[36 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  std::stringstream ss(std::string(bytes.begin(), bytes.end()));
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

TEST(IndexIoTest, EmptyStreamRejected) {
  std::stringstream ss;
  EXPECT_THROW(load_index(ss), eppi::SerializeError);
}

// --- integrity sections ----------------------------------------------------

IndexSection section_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)load_postings_bytes(bytes);
  } catch (const CorruptIndexError& e) {
    return e.section();
  }
  ADD_FAILURE() << "expected CorruptIndexError";
  return IndexSection::kMagic;
}

TEST(IndexIoTest, HeaderBitFlipNamesHeaderSection) {
  auto bytes = sample_bytes(5, 9, 6);
  bytes[10] ^= 0x01;  // inside the dimension fields
  EXPECT_EQ(section_of(bytes), IndexSection::kHeader);
}

TEST(IndexIoTest, TornWriteNamesFooterSection) {
  const auto bytes = sample_bytes(5, 9, 6);
  // Cut inside the footer: header and shards verify, the seal is missing —
  // the signature of a partially flushed write.
  const std::vector<std::uint8_t> torn(bytes.begin(), bytes.end() - 6);
  EXPECT_EQ(section_of(torn), IndexSection::kFooter);
}

TEST(IndexIoTest, ValidateReportsEverySection) {
  auto bytes = sample_bytes(4, 17, 7);
  bytes[50] ^= 0x01;                // corrupt the first shard blob...
  bytes[bytes.size() - 1] ^= 0x01;  // ...and the seal checksum
  const IndexValidation v = validate_index(bytes);
  EXPECT_FALSE(v.ok);
  bool shard_bad = false;
  bool footer_bad = false;
  for (const auto& check : v.sections) {
    if (check.section == IndexSection::kShard && !check.ok) shard_bad = true;
    if (check.section == IndexSection::kFooter && !check.ok) footer_bad = true;
  }
  EXPECT_TRUE(shard_bad);
  EXPECT_TRUE(footer_bad);
}

TEST(IndexIoTest, ValidateUnrecognizedMagic) {
  const std::vector<std::uint8_t> junk{'n', 'o', 'p', 'e'};
  const IndexValidation v = validate_index(junk);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.version, 0);
}

// The retired dense formats are no longer read: a file carrying the
// eppi-index-v1 or -v2 magic — a genuine old header or a v3 body relabeled
// — fails the magic check instead of being misparsed.
TEST(IndexIoTest, LegacyMagicRejected) {
  const auto v3_bytes = sample_bytes(6, 40, 5);
  // A v2-shaped header: magic, u64 rows, u64 cols, then one packed row.
  std::vector<std::uint8_t> v2_header{'e', 'p', 'p', 'i', 'i', 'd', 'x', '2'};
  v2_header.resize(8 + 16 + 8, 0);
  v2_header[8] = 1;
  v2_header[16] = 3;
  for (const char* magic : {"eppiidx1", "eppiidx2"}) {
    std::vector<std::uint8_t> relabeled = v3_bytes;
    std::memcpy(relabeled.data(), magic, 8);
    std::vector<std::uint8_t> old_header = v2_header;
    std::memcpy(old_header.data(), magic, 8);
    for (const auto& bytes : {relabeled, old_header}) {
      EXPECT_EQ(section_of(bytes), IndexSection::kMagic) << magic;
      const IndexValidation v = validate_index(bytes);
      EXPECT_FALSE(v.ok) << magic;
      EXPECT_EQ(v.version, 0) << magic;
      ASSERT_EQ(v.sections.size(), 1u) << magic;
      EXPECT_EQ(v.sections[0].section, IndexSection::kMagic) << magic;
    }
  }
}

}  // namespace
}  // namespace eppi::core
