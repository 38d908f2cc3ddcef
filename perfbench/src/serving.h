// Pieces the two serving workloads (lookup, churn) share: the generated
// network and its owner/provider catalog, the Zipf key stream, and the
// closed-loop reader threads that issue query_ppi_many batches and check
// every answer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/locator_service.h"
#include "helpers.h"

namespace eppi::perfbench {

// ε of the serving workloads' owners is uniform in [0, kEpsilonMax]. At
// m=64 this puts the mixing probability λ near 0.06 and the mean β near
// 0.2, so an answer names its owner's providers plus a few decoys. With ε
// up to 1, λ clamps to 1, every answer names every provider, and the
// recall checks could not fail.
inline constexpr double kEpsilonMax = 0.98;

// A Zipf network (exponent 0.9, most common identity at half the
// providers, ε uniform in [0, kEpsilonMax]) with the names the service
// sees.
struct Catalog {
  std::vector<std::string> providers;
  std::vector<std::string> owners;
  std::vector<double> epsilons;  // per owner
  // Per owner, its true providers; churn appends facts stamped with the
  // epoch that first publishes them.
  std::vector<std::vector<Fact>> facts;
};

Catalog make_catalog(std::size_t m, std::size_t n, eppi::Rng& rng);

// Registers the provider catalog (in id order), then delegates every fact.
void delegate_catalog(eppi::core::LocatorService& svc, const Catalog& cat);

// Owner ids for the closed-loop readers: Zipf(0.99) over a seeded
// permutation of the catalog, `batches` batches of `batch` owners, cycled.
std::vector<std::uint32_t> make_key_stream(std::size_t n_owners,
                                           std::size_t batch,
                                           std::size_t batches,
                                           std::uint64_t seed);

inline constexpr std::size_t kBatch = 16;
inline constexpr std::size_t kReaders = 2;

struct ReaderResult {
  // Latency of each query_ppi_many call (µs), by the read window in which
  // it ended (see ReaderOptions::window).
  std::vector<FineHistogram> windows;
  FineHistogram building;  // calls made while the writer was building
  FineHistogram idle;      // ...while it was not
  // The first kRawSamples latencies of each reader, as measured.
  std::vector<double> raw_us;
  std::uint64_t calls = 0;
  Tally tally;
  double wall_s = 0.0;  // from the start signal to the stop signal
};

inline constexpr std::size_t kRawSamples = std::size_t{1} << 16;

struct ReaderOptions {
  // Set by a writer while it is inside construct_ppi (churn); null if none.
  const std::atomic<bool>* building = nullptr;
  // Pauses the readers for span drains (traced runs); null if untraced.
  SpanCollector* collector = nullptr;
  // The read window a call belongs to. Null: back-to-back windows of
  // window_s from start(), by when the call ended. Otherwise the value it
  // points to when the call ended, which a writer sets (churn: the epoch
  // in progress, or -1 between epochs, where a call is in no window).
  const std::atomic<int>* window = nullptr;
  double window_s = 0.5;
  // Drop one provider from the first checked answer (planted wrong answer).
  bool plant = false;
};

// Closed-loop readers: each thread issues its next batch only after the
// previous one returns, until stop() is called. `cat` is read concurrently
// and must not change while they run. Samples and counts of all threads
// are merged.
class ReaderPool {
 public:
  ReaderPool(const eppi::core::LocatorService& svc, const Catalog& cat,
             std::uint64_t seed, ReaderOptions options);
  ~ReaderPool();
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  void start();
  ReaderResult stop();
  // Seconds since start(). Called from the thread that called start().
  double elapsed_s() const { return seconds_since(started_); }
  // Reader t's key stream (owner ids, kBatch per batch).
  const std::vector<std::uint32_t>& keys(std::size_t t) const {
    return keys_[t];
  }

 private:
  void run(std::size_t t);

  const eppi::core::LocatorService& svc_;
  const Catalog& cat_;
  ReaderOptions options_;
  std::vector<std::vector<std::uint32_t>> keys_;
  std::vector<ReaderResult> results_;
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point started_;
  std::vector<std::thread> threads_;  // last: they use the members above
};

}  // namespace eppi::perfbench
