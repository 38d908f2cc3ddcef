// Lifecycle integration: a network that keeps evolving, an epoch manager
// that keeps rebuilding, audits that keep passing, and coordinators that
// proactively reshare between epochs.
#include <gtest/gtest.h>

#include "attack/threat_report.h"
#include "common/error.h"
#include "core/epoch_manager.h"
#include "core/publisher.h"
#include "dataset/evolution.h"
#include "dataset/synthetic.h"
#include "secret/reshare.h"
#include "secret/sec_sum_share.h"

namespace eppi {
namespace {

TEST(LifecycleTest, EvolvingNetworkStaysPrivateAcrossEpochs) {
  Rng rng(77);
  constexpr std::size_t kM = 150;
  constexpr std::size_t kN = 60;
  std::vector<std::uint64_t> freqs(kN, 3);
  freqs[0] = 145;
  auto net = dataset::make_network_with_frequencies(kM, freqs, rng);
  const auto epsilons = dataset::random_epsilons(kN, rng, 0.4, 0.8);

  core::EpochManager manager;
  dataset::EvolutionConfig churn;
  churn.new_delegations_per_step = 6.0;
  dataset::NetworkEvolution evolution(net.membership, churn, Rng(78));

  core::EpochManager::EpochResult previous;
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto result = manager.rebuild(net.membership, epsilons);

    // Invariants every epoch: recall, bounded churn, privacy audit.
    EXPECT_TRUE(core::full_recall(net.membership, result.index->matrix()))
        << "epoch " << epoch;
    if (epoch > 0) {
      // Churn stays in the same order as the ground-truth change (a few
      // delegations per step touch a few columns), far below full rebuild.
      EXPECT_LT(result.churn, kM * kN / 4) << "epoch " << epoch;
    }
    Rng audit_rng(100 + epoch);
    // Ground-truth common flags at this epoch.
    std::vector<bool> common(kN);
    for (std::size_t j = 0; j < kN; ++j) {
      common[j] = result.info.is_common[j];
    }
    const auto report =
        attack::audit_index(net.membership, result.index->matrix(), epsilons,
                            common, audit_rng);
    EXPECT_EQ(report.primary_degree, attack::PrivacyDegree::kEpsPrivate)
        << "epoch " << epoch;

    previous = result;
    (void)evolution.step();
  }
}

TEST(LifecycleTest, ReshareBetweenEpochsPreservesAggregates) {
  // Coordinators reshare between construction epochs; the shared
  // frequencies (and anything computed from them later) are unchanged.
  constexpr std::size_t kM = 10;
  constexpr std::size_t kC = 3;
  constexpr std::size_t kN = 12;
  Rng rng(5);
  std::vector<std::vector<std::uint8_t>> inputs(
      kM, std::vector<std::uint8_t>(kN));
  std::vector<std::uint64_t> freqs(kN, 0);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      inputs[i][j] = rng.bernoulli(0.5) ? 1 : 0;
      freqs[j] += inputs[i][j];
    }
  }
  net::Cluster cluster(kM, 6);
  const secret::SecSumShareParams params{kC, 0, kN};
  const auto ring = secret::resolve_ring(params, kM);
  std::vector<std::vector<secret::SecretU64>> final_shares(kC);
  cluster.run([&](net::PartyContext& ctx) {
    auto shares =
        secret::run_sec_sum_share_party(ctx, params, inputs[ctx.id()]);
    if (ctx.id() >= kC) return;
    std::vector<net::PartyId> parties;
    for (std::size_t i = 0; i < kC; ++i) {
      parties.push_back(static_cast<net::PartyId>(i));
    }
    // Two resharing epochs back to back.
    auto updated = secret::run_reshare_party(ctx, parties, *shares, ring, 1);
    updated = secret::run_reshare_party(ctx, parties, updated, ring, 2);
    final_shares[ctx.id()] = std::move(updated);
  });
  // The test stands in for all kC coordinators, so opening is legitimate.
  for (std::size_t j = 0; j < kN; ++j) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kC; ++i) {
      total = ring.add(total, final_shares[i][j].reveal());
    }
    EXPECT_EQ(total, freqs[j]) << "identity " << j;
  }
}

}  // namespace
}  // namespace eppi
