// Incremental (delta) epochs, centralized path: the contract is exact — a
// rebuild_delta over a dirty set covering every changed column is
// BIT-IDENTICAL to a full rebuild over the same truth, because β*/ξ/λ are
// re-derived globally and every sticky decision is keyed, not drawn. The
// suite pins that equivalence, the membership (join/leave/rejoin) semantics,
// the LocatorService routing on top, and the serving-tier posting splice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/error.h"
#include "core/epoch_manager.h"
#include "core/locator_service.h"
#include "core/posting_index.h"

namespace eppi::core {
namespace {

constexpr std::size_t kM = 6;
constexpr std::size_t kN = 24;

eppi::BitMatrix base_truth() {
  eppi::BitMatrix truth(kM, kN);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if ((i * 5 + j * 11) % 7 < 2) truth.set(i, j, true);
    }
  }
  for (std::size_t i = 0; i < kM; ++i) truth.set(i, 0, true);  // common
  return truth;
}

std::vector<double> base_epsilons() {
  std::vector<double> eps(kN, 0.5);
  for (std::size_t j = 0; j < kN; ++j) eps[j] = 0.2 + 0.03 * (j % 20);
  return eps;
}

EpochManager::Options manager_options() {
  EpochManager::Options options;
  options.master_key = 9001;
  return options;
}

TEST(DeltaEpochTest, DeltaRebuildIsBitIdenticalToFullRebuild) {
  // Second-epoch truth: columns 3 and 17 change, and column 9 becomes
  // common (every provider holds it), which moves n_common and with it
  // ξ/λ — the widening machinery must chase the flipped mixing decisions.
  eppi::BitMatrix truth2 = base_truth();
  truth2.set(1, 3, !truth2.get(1, 3));
  truth2.set(4, 17, !truth2.get(4, 17));
  for (std::size_t i = 0; i < kM; ++i) truth2.set(i, 9, true);
  std::vector<double> eps2 = base_epsilons();
  eps2[3] = 0.9;  // the owner also raised their privacy degree

  EpochManager incremental(manager_options());
  incremental.rebuild(base_truth(), base_epsilons());
  EpochManager::DeltaRequest req;
  req.dirty = {3, 9, 17};
  const auto delta = incremental.rebuild_delta(truth2, eps2, req);

  EpochManager full(manager_options());
  full.rebuild(base_truth(), base_epsilons());
  const auto reference = full.rebuild(truth2, eps2);

  EXPECT_TRUE(delta.delta.delta);
  EXPECT_GE(delta.delta.recomputed, req.dirty.size());
  EXPECT_EQ(delta.index->matrix(), reference.index->matrix());
  EXPECT_EQ(delta.churn, reference.churn);
}

TEST(DeltaEpochTest, FirstEpochFallsBackToFullTransparently) {
  EpochManager manager(manager_options());
  EpochManager::DeltaRequest req;
  req.dirty = {1, 2};
  const auto result =
      manager.rebuild_delta(base_truth(), base_epsilons(), req);
  EXPECT_FALSE(result.delta.delta);  // nothing to splice over yet
  EXPECT_EQ(result.epoch, 1u);

  EpochManager reference(manager_options());
  EXPECT_EQ(result.index->matrix(),
            reference.rebuild(base_truth(), base_epsilons()).index->matrix());
}

TEST(DeltaEpochTest, LeaveZeroesRowAndRejoinRestoresStickyNoise) {
  const auto eps = base_epsilons();
  EpochManager manager(manager_options());
  const auto epoch1 = manager.rebuild(base_truth(), eps);

  // Provider 2 leaves: its truth row is withdrawn and its published row
  // must go fully dark (noise included — a lingering noise bit would leak
  // that the row was ever noisy).
  eppi::BitMatrix truth2 = base_truth();
  EpochManager::DeltaRequest leave;
  leave.left = {2};
  for (std::size_t j = 0; j < kN; ++j) {
    if (truth2.get(2, j)) {
      truth2.set(2, j, false);
      leave.dirty.push_back(static_cast<IdentityId>(j));
    }
  }
  const auto epoch2 = manager.rebuild_delta(truth2, eps, leave);
  EXPECT_EQ(manager.retired_count(), 1u);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_FALSE(epoch2.index->matrix().get(2, j)) << "col " << j;
  }

  // A later FULL rebuild must keep honoring the retirement.
  const auto epoch3 = manager.rebuild(truth2, eps);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_FALSE(epoch3.index->matrix().get(2, j)) << "col " << j;
  }

  // Rejoin with the original data: the published row must be byte-identical
  // to epoch 1's — the sticky noise key belongs to the id, not the session.
  EpochManager::DeltaRequest rejoin;
  rejoin.joined = {2};
  rejoin.dirty = leave.dirty;
  const auto epoch4 = manager.rebuild_delta(base_truth(), eps, rejoin);
  EXPECT_EQ(manager.retired_count(), 0u);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(epoch4.index->matrix().get(2, j),
              epoch1.index->matrix().get(2, j))
        << "col " << j;
  }
}

TEST(DeltaEpochTest, JoinGrowsShapeAndMatchesFullRebuild) {
  const auto eps = base_epsilons();
  EpochManager incremental(manager_options());
  incremental.rebuild(base_truth(), eps);

  eppi::BitMatrix truth2(kM + 1, kN);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (base_truth().get(i, j)) truth2.set(i, j, true);
    }
  }
  EpochManager::DeltaRequest join;
  join.joined = {static_cast<ProviderId>(kM)};
  for (const std::size_t j : {2u, 9u, 14u}) {
    truth2.set(kM, j, true);
    join.dirty.push_back(static_cast<IdentityId>(j));
  }
  const auto delta = incremental.rebuild_delta(truth2, eps, join);
  EXPECT_EQ(delta.index->matrix().rows(), kM + 1);
  EXPECT_EQ(delta.delta.spliced_rows, 1u);

  EpochManager full(manager_options());
  full.rebuild(base_truth(), eps);
  const auto reference = full.rebuild(truth2, eps);
  EXPECT_EQ(delta.index->matrix(), reference.index->matrix());
}

// --- LocatorService routing ------------------------------------------------

LocatorService::Options service_options(bool enable_delta) {
  LocatorService::Options options;
  options.distributed = false;
  options.seed = 5;
  options.enable_delta = enable_delta;
  return options;
}

void seed_service(LocatorService& svc) {
  for (int o = 0; o < 20; ++o) {
    svc.delegate("owner" + std::to_string(o), 0.3 + 0.02 * o,
                 "prov" + std::to_string(o % 5));
  }
}

TEST(DeltaEpochTest, ServiceDeltaPathAnswersIdenticallyToFullPath) {
  LocatorService with_delta(service_options(true));
  LocatorService without(service_options(false));
  seed_service(with_delta);
  seed_service(without);
  with_delta.construct_ppi();
  without.construct_ppi();

  // A small touch: one owner re-delegates with a new ε.
  with_delta.delegate("owner7", 0.95, "prov2");
  without.delegate("owner7", 0.95, "prov2");
  with_delta.construct_ppi();
  without.construct_ppi();

  EXPECT_TRUE(with_delta.last_rebuild().delta);
  EXPECT_FALSE(without.last_rebuild().delta);
  EXPECT_EQ(with_delta.last_rebuild().dirty, 1u);
  for (int o = 0; o < 20; ++o) {
    const std::string owner = "owner" + std::to_string(o);
    EXPECT_EQ(with_delta.query_ppi(owner), without.query_ppi(owner)) << owner;
  }
}

TEST(DeltaEpochTest, DirtyFractionGateFallsBackToFullRebuild) {
  LocatorService svc(service_options(true));
  seed_service(svc);
  svc.construct_ppi();
  // Touch most owners: recomputing nearly everything incrementally is a
  // waste, so the service must choose a full rebuild.
  for (int o = 0; o < 15; ++o) {
    svc.delegate("owner" + std::to_string(o), 0.8, "prov1");
  }
  svc.construct_ppi();
  EXPECT_FALSE(svc.last_rebuild().delta);
  EXPECT_EQ(svc.last_rebuild().epoch, 2u);
}

TEST(DeltaEpochTest, ServiceRetireAndRejoinFlowsThroughQueries) {
  LocatorService svc(service_options(true));
  seed_service(svc);
  svc.construct_ppi();

  svc.retire_provider("prov3");
  EXPECT_TRUE(svc.provider_retired(3));
  svc.construct_ppi();
  EXPECT_EQ(svc.last_rebuild().left, 1u);
  for (int o = 0; o < 20; ++o) {
    for (const auto& name : svc.query_ppi("owner" + std::to_string(o))) {
      EXPECT_NE(name, "prov3") << "owner" << o;
    }
  }

  // Delegating to the retired name rejoins it.
  svc.delegate("owner3", 0.4, "prov3");
  EXPECT_FALSE(svc.provider_retired(3));
  svc.construct_ppi();
  EXPECT_EQ(svc.last_rebuild().joined, 1u);
  const auto answer = svc.query_ppi("owner3");
  EXPECT_NE(std::find(answer.begin(), answer.end(), "prov3"), answer.end());
}

TEST(DeltaEpochTest, RetireUnknownProviderThrows) {
  LocatorService svc(service_options(true));
  EXPECT_THROW(svc.retire_provider("nobody"), eppi::ConfigError);
}

// --- serving-tier posting splice -------------------------------------------

TEST(DeltaEpochTest, PostingSpliceMatchesFullInversion) {
  eppi::BitMatrix before(5, 16);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if ((i + j) % 3 == 0) before.set(i, j, true);
    }
  }
  const PostingIndex base(before);

  // After: columns 4 and 11 recomputed, row 2 retired (zeroed), and the
  // matrix grew by one joined row touching arbitrary columns.
  eppi::BitMatrix after(6, 16);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (i != 2 && before.get(i, j)) after.set(i, j, true);
    }
  }
  after.set(0, 4, true);
  after.set(3, 11, true);
  for (const std::size_t j : {1u, 4u, 7u, 15u}) after.set(5, j, true);

  const std::vector<IdentityId> affected{4, 11};
  const std::vector<ProviderId> touched{2, 5};
  const PostingIndex spliced(base, after, affected, touched);
  const PostingIndex full(after);

  ASSERT_EQ(spliced.identities(), full.identities());
  EXPECT_EQ(spliced.providers(), full.providers());
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(spliced.query(static_cast<IdentityId>(j)),
              full.query(static_cast<IdentityId>(j)))
        << "col " << j;
  }
}

TEST(DeltaEpochTest, PostingSpliceRejectsOutOfRangeInputs) {
  eppi::BitMatrix published(3, 4);
  const PostingIndex base(published);
  EXPECT_THROW(PostingIndex(base, published, std::vector<IdentityId>{9}, {}),
               eppi::ConfigError);
  EXPECT_THROW(PostingIndex(base, published, {}, std::vector<ProviderId>{7}),
               eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::core
