#include "core/epoch_manager.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

struct Fixture {
  eppi::dataset::Network network;
  std::vector<double> epsilons;
};

Fixture make_fixture(std::uint64_t seed) {
  eppi::Rng rng(seed);
  Fixture f;
  std::vector<std::uint64_t> freqs(60, 2);
  freqs[0] = 78;  // a common identity
  f.network = eppi::dataset::make_network_with_frequencies(80, freqs, rng);
  f.epsilons.assign(60, 0.7);
  return f;
}

TEST(EpochManagerTest, UnchangedDataProducesZeroChurn) {
  const Fixture f = make_fixture(1);
  EpochManager manager;
  const auto first = manager.rebuild(f.network.membership, f.epsilons);
  const auto second = manager.rebuild(f.network.membership, f.epsilons);
  EXPECT_EQ(first.index->matrix(), second.index->matrix());
  EXPECT_EQ(second.churn, 0u);
  EXPECT_EQ(second.epoch, 2u);
}

TEST(EpochManagerTest, FullRecallEveryEpoch) {
  const Fixture f = make_fixture(2);
  EpochManager manager;
  const auto result = manager.rebuild(f.network.membership, f.epsilons);
  EXPECT_TRUE(full_recall(f.network.membership, result.index->matrix()));
}

TEST(EpochManagerTest, DecoySetStableAcrossEpochs) {
  // The apparent-common set (true commons + sticky decoys) must not rotate
  // between epochs — rotating decoys would expose the true commons to an
  // intersection attack over time.
  const Fixture f = make_fixture(3);
  EpochManager manager;
  const auto a = manager.rebuild(f.network.membership, f.epsilons);
  const auto b = manager.rebuild(f.network.membership, f.epsilons);
  EXPECT_EQ(a.info.is_apparent_common, b.info.is_apparent_common);
  EXPECT_GT(a.info.lambda, 0.0);
}

TEST(EpochManagerTest, MembershipChangeTouchesOnlyAffectedColumns) {
  Fixture f = make_fixture(4);
  EpochManager manager;
  const auto before = manager.rebuild(f.network.membership, f.epsilons);
  // A new delegation for some non-mixed identity, at a provider whose
  // published bit was 0 — the change must surface, and only in that column.
  std::size_t target = 1;
  while (before.info.is_apparent_common[target]) ++target;
  std::size_t provider = 0;
  while (before.index->matrix().get(provider, target)) ++provider;
  f.network.membership.set(provider, target, true);
  const auto result = manager.rebuild(f.network.membership, f.epsilons);
  // β_target changes slightly with σ_target, so only that column's noise
  // may move; every other column is untouched (sticky noise + unchanged β).
  EXPECT_LE(result.churn, f.network.membership.rows());
  EXPECT_GE(result.churn, 1u);
  for (std::size_t i = 0; i < f.network.membership.rows(); ++i) {
    for (std::size_t j = 0; j < f.network.membership.cols(); ++j) {
      if (j == target) continue;
      EXPECT_EQ(result.index->matrix().get(i, j),
                before.index->matrix().get(i, j));
    }
  }
}

TEST(EpochManagerTest, RaisingEpsilonOnlyAddsNoise) {
  Fixture f = make_fixture(5);
  EpochManager manager;
  const auto before = manager.rebuild(f.network.membership, f.epsilons);
  f.epsilons[10] = 0.95;  // owner 10 tightens privacy
  const auto after = manager.rebuild(f.network.membership, f.epsilons);
  for (std::size_t i = 0; i < f.network.membership.rows(); ++i) {
    // Monotone sticky noise: no published 1 for identity 10 disappears.
    if (before.index->matrix().get(i, 10)) {
      EXPECT_TRUE(after.index->matrix().get(i, 10));
    }
  }
}

TEST(EpochManagerTest, DifferentMasterKeysProduceDifferentNoise) {
  const Fixture f = make_fixture(6);
  EpochManager::Options opt_a;
  opt_a.master_key = 1;
  EpochManager::Options opt_b;
  opt_b.master_key = 2;
  EpochManager a{opt_a};
  EpochManager b{opt_b};
  const auto ra = a.rebuild(f.network.membership, f.epsilons);
  const auto rb = b.rebuild(f.network.membership, f.epsilons);
  EXPECT_NE(ra.index->matrix(), rb.index->matrix());
}

TEST(EpochManagerTest, FirstEpochChurnIsFullMatrix) {
  const Fixture f = make_fixture(7);
  EpochManager manager;
  const auto result = manager.rebuild(f.network.membership, f.epsilons);
  EXPECT_EQ(result.churn,
            f.network.membership.rows() * f.network.membership.cols());
}

TEST(EpochManagerTest, ValidatesInput) {
  const Fixture f = make_fixture(8);
  EpochManager manager;
  const std::vector<double> wrong(3, 0.5);
  EXPECT_THROW(manager.rebuild(f.network.membership, wrong),
               eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::core
