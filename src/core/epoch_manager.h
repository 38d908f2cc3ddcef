// Epoch manager: reconstruction over time without leaking through churn.
//
// The paper's index is static (§III-C) — that is what makes repeated attacks
// no stronger than a single one. Real networks change, so the index must be
// rebuilt; naive rebuilding leaks twice:
//
//  * fresh publication noise rotates between epochs, so intersecting
//    snapshots strips false positives (solved by core/sticky_publisher);
//  * fresh λ-mixing coins rotate the *decoy* set while true common
//    identities stay mixed in every epoch — intersecting the apparent-
//    common sets across epochs isolates exactly the identities the mixing
//    is meant to hide.
//
// EpochManager makes both decisions sticky: publication noise is keyed per
// provider, and the mixing coin for identity j is a fixed PRF draw compared
// against the current λ. Both decisions are *monotone* (raising β or λ only
// adds noise/decoys), so an epoch's snapshot differs from the previous one
// only where the data or the privacy requirements actually changed.
//
// Concurrency: EpochManager is the build/commit side of the serving tier
// and is single-threaded by contract — one writer at a time calls
// rebuild*/attach_store. Concurrent readers never touch it; they read the
// immutable EpochSnapshot a LocatorService publishes after each successful
// rebuild (core/epoch_snapshot.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "core/beta_policy.h"
#include "core/constructor.h"
#include "core/distributed_constructor.h"
#include "core/epoch_store.h"
#include "core/ppi_index.h"

namespace eppi::obs {
class Span;
}  // namespace eppi::obs

namespace eppi::core {

class EpochManager {
 public:
  struct Options {
    BetaPolicy policy;
    bool enable_mixing = true;
    std::uint64_t master_key = 1;  // derives provider keys + mixing PRF
    // With a store attached, at most this many consecutive incremental
    // epochs are journaled as delta records before the next one is written
    // as a full index file again (bounds recovery replay chains). 0 means
    // every epoch is committed full.
    std::size_t delta_base_interval = 16;

    Options() : policy(BetaPolicy::chernoff(0.9)) {}
  };

  EpochManager() : EpochManager(Options{}) {}
  explicit EpochManager(Options options) : options_(options) {}

  // How an epoch was produced, for callers that care whether the delta path
  // actually engaged (benches, the locator service's status surface).
  struct DeltaStats {
    bool delta = false;            // false: a full rebuild ran instead
    std::size_t recomputed = 0;    // identity columns recomputed/republished
    std::size_t spliced_rows = 0;  // joined provider rows published whole
    // The identity columns actually republished (the request's dirty set
    // widened by λ-flips) — what a serving-tier snapshot splice must
    // re-invert. Empty when `delta` is false.
    std::vector<IdentityId> affected_ids;
  };

  struct EpochResult {
    PpiIndex index;
    ConstructionInfo info;
    std::uint64_t epoch = 0;
    // Cells that differ from the previous epoch's published matrix
    // (0 when data and requirements are unchanged); the full matrix size on
    // the first epoch or after a shape change.
    std::size_t churn = 0;
    DeltaStats delta;
  };

  // Builds the next epoch's index for the current network state.
  EpochResult rebuild(const eppi::BitMatrix& truth,
                      std::span<const double> epsilons);

  // Input to an incremental rebuild. Contract: `dirty` must name every
  // identity whose global frequency or ε could have changed since the
  // previous epoch — including every identity appearing in a joined or
  // leaving provider's row (the locator service derives this set from
  // provider-reported diffs). The manager re-derives β/ξ/λ only over that
  // set and widens it automatically to identities whose λ-mixing decision
  // flipped, so the published matrix is bit-identical to a full rebuild()
  // over the same truth.
  struct DeltaRequest {
    std::vector<IdentityId> dirty;
    std::vector<ProviderId> joined;  // provider rows entering this epoch
    std::vector<ProviderId> left;    // provider rows retiring this epoch
  };

  // Incremental rebuild: recomputes only the dirty identity columns and the
  // joined/left provider rows, splicing them over the previous epoch's
  // published matrix. Falls back to a full rebuild (same result, more work)
  // when there is no in-memory base to splice over — first epoch, right
  // after attach_store, or a shrinking shape. With a store attached the
  // epoch is journaled as a delta record unless the record would overflow
  // or the replay chain hit delta_base_interval, in which case a full index
  // file is committed (the published matrix is identical either way).
  EpochResult rebuild_delta(const eppi::BitMatrix& truth,
                            std::span<const double> epsilons,
                            const DeltaRequest& request);

  struct DistributedEpochResult {
    PpiIndex index;             // fresh on success; the previous epoch's
                                // index when degraded
    DistributedReport report;   // meaningful only when !degraded
    std::uint64_t epoch = 0;    // advances only on success
    // On success: as EpochResult::churn. On a degraded rebuild: the number
    // of cells the stale index is known to be behind by — true postings it
    // does not serve yet plus retired rows it still shows — so dashboards
    // can tell a quiet epoch (0 churn, fresh) from a degraded one (stale
    // with pending changes).
    std::size_t churn = 0;
    bool degraded = false;
    std::string failure;        // what() of the aborting error when degraded
    DeltaStats delta;
  };

  // Builds the next epoch via the secure distributed constructor, degrading
  // gracefully on protocol failure: if a rebuild aborts (PartyFailure or any
  // ProtocolError) and a previous epoch exists, the previous index is
  // returned with `degraded` set and the failure recorded. A failure with no
  // previous epoch to fall back to propagates.
  DistributedEpochResult rebuild_distributed(const eppi::BitMatrix& truth,
                                             std::span<const double> epsilons,
                                             const DistributedOptions& options);

  // Incremental distributed rebuild: runs SecSumShare/CountBelow only over
  // the dirty identities (an m×d submatrix job among the surviving active
  // providers) and splices the resulting columns over the previous epoch.
  // λ only ever widens (max of the previous and the sub-run's λ), so the
  // decoy set stays monotone; non-dirty columns keep their previous bits
  // until the next full rebuild. Degrades exactly like
  // rebuild_distributed — and additionally when there is no previous epoch
  // to splice over, the request falls back to a full distributed rebuild.
  DistributedEpochResult rebuild_delta_distributed(
      const eppi::BitMatrix& truth, std::span<const double> epsilons,
      const DeltaRequest& request, const DistributedOptions& options);

  // Providers currently retired (rows forced to zero in every published
  // epoch until the id rejoins). Maintained by rebuild_delta*'s
  // joined/left lists; also applied by full rebuilds.
  std::size_t retired_count() const noexcept;

  std::uint64_t epochs_built() const noexcept { return epoch_; }
  std::size_t failed_rebuilds() const noexcept { return failed_rebuilds_; }
  const std::string& last_failure() const noexcept { return last_failure_; }

  // Attaches a durable store (core/epoch_store.h) and resumes from it.
  //
  // The store's recorded sticky state WINS over the configured options: after
  // a restart the manager must derive the exact same provider noise keys and
  // mixing coins as before, even if the process was relaunched with a
  // different configured master key (re-rolling sticky randomness is the
  // cross-epoch leak this class exists to prevent). A fresh store records the
  // configured state instead. The last committed epoch (if any) is loaded so
  // serving resumes where the previous process stopped, and every subsequent
  // successful rebuild is committed durably before it takes effect.
  void attach_store(EpochStore& store);

  // Owner-name lexicon persisted alongside each full-epoch commit (omitted
  // when null), so a recovered store can republish name lookups without
  // re-running registration. The serving tier refreshes it before every
  // rebuild; the manager only forwards the pointer to the store.
  void set_commit_lexicon(std::shared_ptr<const Lexicon> lexicon) {
    commit_lexicon_ = std::move(lexicon);
  }

  // What the manager is currently serving, for staleness-aware callers.
  struct ServingStatus {
    std::uint64_t epoch = 0;      // epoch of the index being served
    bool serving = false;         // an index is available at all
    bool degraded = false;        // most recent rebuild attempt failed
    std::size_t rebuilds_behind = 0;  // consecutive failed rebuilds since
                                      // the served epoch was built
    double age_seconds = 0.0;     // time since the served epoch was built
                                  // (or restored from the store)
  };
  ServingStatus serving_status() const;

  bool serving() const noexcept { return has_previous_; }
  // The served epoch's published index — the one dense copy of it the
  // writer side holds; the serving tier inverts its matrix straight into a
  // PostingIndex snapshot. Both references are invalidated by the next
  // successful rebuild/attach_store (writer-side use only; readers go
  // through LocatorService's snapshots). Both require serving().
  const PpiIndex& current_index() const;
  const eppi::BitMatrix& current_matrix() const;

 private:
  std::uint64_t provider_key(std::size_t provider) const noexcept;
  bool sticky_mix_coin(std::size_t identity, double lambda) const noexcept;
  std::size_t churn_against_previous(const eppi::BitMatrix& published) const;
  // Commits (store attached) and starts serving `published`. When
  // `delta_rec` is non-null and the store's lineage head can base a delta
  // of that shape, the epoch is journaled as a delta record instead of a
  // full index file.
  void adopt_epoch(const eppi::BitMatrix& published, double lambda,
                   const EpochStore::EpochDelta* delta_rec = nullptr);
  struct Spliced {
    eppi::BitMatrix published;
    std::size_t churn = 0;  // cells changed; m·n when the shape changed
  };
  // The splice both delta paths share: copies the previous epoch's
  // published matrix into an m×n result (growing it when the shape
  // changed), zeroes retired rows, lets `recompute(write)` store the FINAL
  // value of every recomputed cell through write(i, j, bit), then journals
  // the epoch as a delta record — whole rows for `spliced_rows`, columns
  // for `columns` — adopts it, and records the span attributes and churn
  // metrics. Defined in epoch_manager.cpp, its only user.
  template <typename Recompute>
  Spliced splice_delta_epoch(std::size_t m, std::size_t n, double lambda,
                             const DeltaRequest& request,
                             std::span<const ProviderId> spliced_rows,
                             std::span<const IdentityId> columns,
                             obs::Span& span, Recompute&& recompute);
  // Degraded mode shared by both distributed paths: counts the failure and
  // keeps serving the previous epoch, labelled with how far it is behind
  // `truth`.
  DistributedEpochResult degrade(const eppi::BitMatrix& truth,
                                 const std::string& failure, obs::Span& span,
                                 bool delta);
  void apply_membership(const DeltaRequest& request, std::size_t m);
  void zero_retired_rows(eppi::BitMatrix& published) const;
  // Cells the served index is behind by relative to `truth`: true postings
  // not yet published plus bits still shown in retired rows.
  std::size_t pending_churn(const eppi::BitMatrix& truth) const;
  void record_churn_metrics(std::size_t churn, bool delta) const;

  Options options_;
  // uint64_t to match EpochStore::EpochRecord::epoch — size_t would
  // truncate restored epoch ids on 32-bit builds and could then break the
  // monotone-lineage invariant in commit_epoch.
  std::uint64_t epoch_ = 0;         // newest *committed* epoch id (never
                                    // reused)
  std::uint64_t served_epoch_ = 0;  // epoch of previous_ — older than epoch_
                                    // when recovery quarantined newer files
  PpiIndex previous_;
  bool has_previous_ = false;
  // Per-identity derivation state of the previous epoch, the base the delta
  // path recomputes from. Only valid alongside has_previous_ when the
  // previous epoch was built in-process (attach_store restores the matrix
  // but not this, so the first rebuild after a restart runs full).
  bool has_last_info_ = false;
  std::vector<double> last_raw_;  // pre-mixing β* per identity
  ConstructionInfo last_info_;
  // retired_[p] != 0: provider p has left; its row publishes as all-zero in
  // every epoch until the same id rejoins.
  std::vector<std::uint8_t> retired_;
  double last_lambda_ = 0.0;  // λ of the currently served epoch
  std::size_t failed_rebuilds_ = 0;
  std::string last_failure_;
  EpochStore* store_ = nullptr;
  std::shared_ptr<const Lexicon> commit_lexicon_;
  std::size_t failed_since_commit_ = 0;
  bool has_epoch_time_ = false;
  std::chrono::steady_clock::time_point epoch_time_{};
};

}  // namespace eppi::core
