// Store-backed serving at the EpochManager / LocatorService level: sticky
// randomness survives restarts (the recorded key beats the configured one),
// serving resumes from the last committed epoch, and a failed distributed
// rebuild degrades to stale-but-served answers with visible staleness.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/error.h"
#include "core/epoch_manager.h"
#include "core/epoch_store.h"
#include "core/locator_service.h"
#include "storage/mem_vfs.h"

namespace eppi::core {
namespace {

using eppi::storage::MemVfs;
using namespace std::chrono_literals;

constexpr char kDir[] = "store";

eppi::BitMatrix small_truth() {
  eppi::BitMatrix truth(5, 8);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if ((i + 2 * j) % 3 == 0) truth.set(i, j, true);
    }
  }
  return truth;
}

TEST(DurableServiceTest, StoredStickyKeyBeatsConfiguredKey) {
  MemVfs vfs;
  const std::vector<double> epsilons(8, 0.5);

  eppi::BitMatrix first_published;
  {
    EpochStore store(vfs, kDir);
    EpochManager::Options options;
    options.master_key = 1111;
    EpochManager manager(options);
    manager.attach_store(store);
    first_published = manager.rebuild(small_truth(), epsilons).index->matrix();
  }
  vfs.crash();

  // Relaunch with a DIFFERENT configured key — a misconfigured restart. The
  // stored lineage must win, or the publication noise rotates and the
  // cross-epoch intersection attack comes back.
  EpochStore store(vfs, kDir);
  EpochManager::Options options;
  options.master_key = 9999;
  EpochManager manager(options);
  manager.attach_store(store);
  const auto rebuilt = manager.rebuild(small_truth(), epsilons);
  EXPECT_EQ(rebuilt.index->matrix(), first_published);
  EXPECT_EQ(rebuilt.churn, 0u);  // nothing changed, so nothing may churn
}

TEST(DurableServiceTest, ManagerResumesServingAndEpochNumbering) {
  MemVfs vfs;
  const std::vector<double> epsilons(8, 0.5);
  eppi::BitMatrix published;
  {
    EpochStore store(vfs, kDir);
    EpochManager manager;
    manager.attach_store(store);
    (void)manager.rebuild(small_truth(), epsilons);
    published = manager.rebuild(small_truth(), epsilons).index->matrix();
  }
  vfs.crash();

  EpochStore store(vfs, kDir);
  EpochManager manager;
  manager.attach_store(store);
  EXPECT_TRUE(manager.serving());
  EXPECT_EQ(manager.current_index().matrix(), published);
  EXPECT_EQ(manager.epochs_built(), 2u);

  const auto status = manager.serving_status();
  EXPECT_TRUE(status.serving);
  EXPECT_FALSE(status.degraded);
  EXPECT_EQ(status.epoch, 2u);
  EXPECT_GE(status.age_seconds, 0.0);

  // Epoch numbering continues the stored lineage rather than restarting.
  const auto next = manager.rebuild(small_truth(), epsilons);
  EXPECT_EQ(next.epoch, 3u);
  EXPECT_EQ(store.latest_epoch(), std::uint64_t{3});
}

TEST(DurableServiceTest, QuarantinedNewestEpochServesOlderWithHonestLabel) {
  MemVfs vfs;
  const std::vector<double> epsilons(8, 0.5);
  {
    EpochStore store(vfs, kDir);
    EpochManager manager;
    manager.attach_store(store);
    (void)manager.rebuild(small_truth(), epsilons);
    eppi::BitMatrix changed = small_truth();
    changed.set(0, 3, true);
    (void)manager.rebuild(changed, epsilons);
  }
  // Rot the newest epoch file so recovery quarantines it.
  auto bytes = vfs.read_file("store/epoch-2.idx");
  bytes[30] ^= 0x10;
  vfs.write_file("store/epoch-2.idx", bytes);
  vfs.fsync_file("store/epoch-2.idx");

  EpochStore store(vfs, kDir);
  EpochManager manager;
  manager.attach_store(store);
  // The status must name the epoch actually being served (1), not the
  // newest committed id — but that id is never reused for a new commit.
  EXPECT_EQ(manager.serving_status().epoch, 1u);
  EXPECT_EQ(manager.rebuild(small_truth(), epsilons).epoch, 3u);
  EXPECT_EQ(manager.serving_status().epoch, 3u);
  EXPECT_EQ(store.latest_epoch(), std::uint64_t{3});
}

LocatorService::Options service_options(bool distributed) {
  LocatorService::Options options;
  options.distributed = distributed;
  options.seed = 11;
  options.c = 2;
  return options;
}

void populate(LocatorService& service) {
  service.delegate("alice", 0.4, "general");
  service.delegate("alice", 0.4, "mercy");
  service.delegate("bob", 0.3, "general");
  service.delegate("carol", 0.8, "mercy");
  service.delegate("dave", 0.5, "lakeside");
}

TEST(DurableServiceTest, LocatorServiceResumesFromStoreAfterRestart) {
  MemVfs vfs;
  std::vector<std::string> answer;
  {
    LocatorService service(service_options(/*distributed=*/false));
    populate(service);
    EpochStore store(vfs, kDir);
    service.attach_store(store);
    service.construct_ppi();
    answer = service.query_ppi("alice");
  }
  vfs.crash();

  // A restarted process re-registers its catalog, attaches the store, and
  // can answer queries from the recovered epoch before any rebuild.
  LocatorService service(service_options(/*distributed=*/false));
  populate(service);
  EpochStore store(vfs, kDir);
  service.attach_store(store);
  EXPECT_TRUE(service.constructed());
  EXPECT_EQ(service.query_ppi("alice"), answer);

  const auto result = service.query_ppi_with_status("alice");
  EXPECT_EQ(result.providers, answer);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.rebuilds_behind, 0u);
}

// Provider names are not persisted, so a fresh process must register its
// provider catalog before attaching a populated store: serving the
// recovered epoch without it would index past the (empty) provider-name
// table on the first query. The attach is refused up front and nothing is
// adopted or published.
TEST(DurableServiceTest, AttachWithoutProviderCatalogIsRefused) {
  MemVfs vfs;
  {
    LocatorService service(service_options(/*distributed=*/false));
    populate(service);
    EpochStore store(vfs, kDir);
    service.attach_store(store);
    service.construct_ppi();
  }

  LocatorService fresh(service_options(/*distributed=*/false));
  EpochStore store(vfs, kDir);
  ASSERT_TRUE(store.latest_epoch().has_value());
  EXPECT_THROW(fresh.attach_store(store), eppi::ConfigError);
  EXPECT_FALSE(fresh.constructed());
  EXPECT_FALSE(fresh.serving_status().serving);
  EXPECT_THROW(fresh.query_ppi("alice"), eppi::ConfigError);
  EXPECT_EQ(fresh.metrics().epoch_swaps, 0u);

  // Nothing was adopted: with the catalog registered, the retry resumes.
  populate(fresh);
  fresh.attach_store(store);
  EXPECT_EQ(fresh.serving_status().epoch, 1u);
  EXPECT_FALSE(fresh.query_ppi("alice").empty());
}

TEST(DurableServiceTest, FailedDistributedRebuildServesStaleWithStatus) {
  LocatorService service(service_options(/*distributed=*/true));
  populate(service);

  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.stage_timeout = 150ms;
  ft.mpc_timeout = 3000ms;
  service.set_fault_tolerance(ft);
  service.construct_ppi();
  const auto healthy = service.query_ppi_with_status("alice");
  EXPECT_EQ(healthy.epoch, 1u);
  EXPECT_FALSE(healthy.degraded);

  // Kill a coordinator in the next rebuild: the service must keep answering
  // from epoch 1 and say so, rather than throwing or going dark.
  ft.fault_scenario = "crash 1 after 0 sends";
  service.set_fault_tolerance(ft);
  service.construct_ppi();
  const auto stale = service.query_ppi_with_status("alice");
  EXPECT_EQ(stale.providers, healthy.providers);
  EXPECT_EQ(stale.epoch, 1u);
  EXPECT_TRUE(stale.degraded);
  EXPECT_EQ(stale.rebuilds_behind, 1u);

  // A second failure deepens the staleness accounting...
  service.construct_ppi();
  EXPECT_EQ(service.query_ppi_with_status("alice").rebuilds_behind, 2u);

  // ...and the next healthy rebuild clears it.
  ft.fault_scenario.clear();
  service.set_fault_tolerance(ft);
  service.construct_ppi();
  const auto recovered = service.query_ppi_with_status("alice");
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.rebuilds_behind, 0u);
  EXPECT_EQ(recovered.epoch, 2u);
}

TEST(DurableServiceTest, DegradedAnswersSurviveRestartViaStore) {
  MemVfs vfs;
  LocatorService service(service_options(/*distributed=*/true));
  populate(service);
  EpochStore store(vfs, kDir);
  service.attach_store(store);

  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.stage_timeout = 150ms;
  ft.mpc_timeout = 3000ms;
  service.set_fault_tolerance(ft);
  service.construct_ppi();  // epoch 1, committed durably
  const auto answer = service.query_ppi("alice");

  vfs.crash();

  // Restart into a world where every rebuild fails: the service still
  // serves the recovered epoch, flagged as degraded once a rebuild fails.
  LocatorService restarted(service_options(/*distributed=*/true));
  populate(restarted);
  EpochStore store2(vfs, kDir);
  restarted.attach_store(store2);
  EXPECT_EQ(restarted.query_ppi("alice"), answer);

  ft.fault_scenario = "crash 1 after 0 sends";
  restarted.set_fault_tolerance(ft);
  restarted.construct_ppi();  // fails, degrades — does NOT throw
  const auto status = restarted.query_ppi_with_status("alice");
  EXPECT_EQ(status.providers, answer);
  EXPECT_TRUE(status.degraded);
  EXPECT_EQ(status.epoch, 1u);
}

}  // namespace
}  // namespace eppi::core
