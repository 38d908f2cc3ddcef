// Robustness fuzzing for every binary decoder: random corruption of valid
// payloads must produce SerializeError (or a successful parse of a
// different value) — never a crash, hang, or unbounded allocation.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/index_io.h"
#include "mpc/circuit_builder.h"
#include "mpc/circuit_io.h"

namespace eppi {
namespace {

template <typename ParseFn>
void fuzz_decoder(std::vector<std::uint8_t> valid, ParseFn parse,
                  std::uint64_t seed, int mutations = 300) {
  Rng rng(seed);
  for (int round = 0; round < mutations; ++round) {
    std::vector<std::uint8_t> corrupted = valid;
    switch (rng.next_below(3)) {
      case 0: {  // flip random bytes
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        for (int f = 0; f < flips && !corrupted.empty(); ++f) {
          corrupted[rng.next_below(corrupted.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1: {  // truncate
        if (!corrupted.empty()) {
          corrupted.resize(rng.next_below(corrupted.size()));
        }
        break;
      }
      default: {  // append garbage
        const int extra = 1 + static_cast<int>(rng.next_below(16));
        for (int e = 0; e < extra; ++e) {
          corrupted.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
    }
    try {
      parse(corrupted);  // either parses or throws SerializeError
    } catch (const SerializeError&) {
      // expected for malformed input
    }
  }
}

TEST(SerializeFuzzTest, BinaryReaderSurvivesCorruption) {
  BinaryWriter w;
  w.write_varint(17);
  const std::vector<std::uint64_t> values{1, 2, 3, 1000000};
  w.write_u64_vector(values);
  const std::vector<std::uint8_t> bytes{9, 8, 7};
  w.write_bytes(bytes);
  w.write_u64(0xDEADBEEF);
  fuzz_decoder(w.take(),
               [](const std::vector<std::uint8_t>& bytes) {
                 BinaryReader r(bytes);
                 (void)r.read_varint();
                 (void)r.read_u64_vector();
                 (void)r.read_bytes();
                 (void)r.read_u64();
               },
               101);
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesCorruption) {
  Rng rng(5);
  BitMatrix matrix(9, 70);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 70; ++j) {
      if (rng.bernoulli(0.3)) matrix.set(i, j, true);
    }
  }
  fuzz_decoder(core::save_index_v3_bytes(
                   core::PostingIndex(core::PpiIndex(std::move(matrix))),
                   nullptr),
               [](const std::vector<std::uint8_t>& bytes) {
                 std::stringstream in(
                     std::string(bytes.begin(), bytes.end()));
                 (void)core::load_index(in);
               },
               102);
}

core::PpiIndex fuzz_index() {
  Rng rng(6);
  BitMatrix matrix(7, 50);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 50; ++j) {
      if (rng.bernoulli(0.4)) matrix.set(i, j, true);
    }
  }
  return core::PpiIndex(std::move(matrix));
}

core::Lexicon fuzz_lexicon(std::size_t owners) {
  std::vector<std::pair<std::string, core::IdentityId>> names;
  for (std::size_t t = 0; t < owners; ++t) {
    names.emplace_back("owner-" + std::to_string(t),
                       static_cast<core::IdentityId>(t));
  }
  return core::Lexicon(std::move(names));
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesBareV3Corruption) {
  fuzz_decoder(core::save_index_v3_bytes(core::PostingIndex(fuzz_index()),
                                         nullptr),
               [](const std::vector<std::uint8_t>& bytes) {
                 (void)core::load_index_bytes(bytes);
               },
               104);
}

TEST(SerializeFuzzTest, IndexLoaderSurvivesV3Corruption) {
  const core::PpiIndex index = fuzz_index();
  const core::Lexicon lexicon = fuzz_lexicon(index.identities());
  fuzz_decoder(
      core::save_index_v3_bytes(core::PostingIndex(index), &lexicon),
      [](const std::vector<std::uint8_t>& bytes) {
        (void)core::load_postings_bytes(bytes);
      },
      105);
}

// Truncation at *every* byte boundary — not just random cuts — with and
// without the lexicon section: a torn write can stop anywhere, including
// mid-magic, mid-dimension, mid-shard and mid-lexicon, and the loader must
// reject each prefix, never crash or over-allocate.
TEST(SerializeFuzzTest, IndexLoaderRejectsEveryTruncationPoint) {
  const core::PpiIndex index = fuzz_index();
  const core::Lexicon lexicon = fuzz_lexicon(index.identities());
  const core::PostingIndex postings(index);

  for (const auto& valid : {core::save_index_v3_bytes(postings, nullptr),
                            core::save_index_v3_bytes(postings, &lexicon)}) {
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const std::vector<std::uint8_t> torn(valid.begin(),
                                           valid.begin() + cut);
      EXPECT_THROW((void)core::load_index_bytes(torn), SerializeError)
          << "prefix of " << cut << " bytes parsed";
      const auto report = core::validate_index(torn);
      EXPECT_FALSE(report.ok) << "validate accepted a " << cut
                              << "-byte prefix";
    }
  }
}

TEST(SerializeFuzzTest, CircuitLoaderSurvivesCorruption) {
  mpc::CircuitBuilder cb;
  const auto a = cb.input_bits(0, 6);
  const auto b = cb.input_bits(1, 6);
  cb.output_vec(cb.add_trunc(a, b));
  cb.output(cb.lt(a, b));
  std::stringstream ss;
  mpc::save_circuit(ss, cb.take());
  const std::string str = ss.str();
  std::vector<std::uint8_t> valid(str.begin(), str.end());
  fuzz_decoder(valid,
               [](const std::vector<std::uint8_t>& bytes) {
                 std::stringstream in(
                     std::string(bytes.begin(), bytes.end()));
                 (void)mpc::load_circuit(in);
               },
               103);
}

}  // namespace
}  // namespace eppi
