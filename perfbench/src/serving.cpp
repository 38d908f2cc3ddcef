#include "serving.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <numeric>
#include <span>

#include "common/zipf.h"
#include "dataset/synthetic.h"

namespace eppi::perfbench {

namespace {


std::string owner_name(std::size_t t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "owner-%07zu", t);
  return buf;
}

}  // namespace

Catalog make_catalog(std::size_t m, std::size_t n, eppi::Rng& rng) {
  eppi::dataset::SyntheticConfig sc;
  sc.providers = m;
  sc.identities = n;
  sc.zipf_exponent = 0.9;
  sc.max_fraction = 0.5;
  Catalog cat;
  const eppi::BitMatrix truth =
      eppi::dataset::make_zipf_network(sc, rng).membership;
  cat.epsilons = eppi::dataset::random_epsilons(n, rng, 0.0, kEpsilonMax);
  cat.providers.reserve(m);
  for (std::size_t p = 0; p < m; ++p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "provider-%02zu", p);
    cat.providers.emplace_back(buf);
  }
  cat.owners.reserve(n);
  for (std::size_t t = 0; t < n; ++t) cat.owners.push_back(owner_name(t));
  cat.facts.assign(n, {});
  for (std::size_t p = 0; p < m; ++p) {
    const std::uint64_t* words = truth.row_words(p);
    for (std::size_t w = 0; w < truth.words_per_row(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const std::size_t t = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
        cat.facts[t].push_back(Fact{static_cast<std::uint32_t>(p), 0});
      }
    }
  }
  return cat;
}

void delegate_catalog(eppi::core::LocatorService& svc, const Catalog& cat) {
  for (const auto& p : cat.providers) svc.register_provider(p);
  for (std::size_t t = 0; t < cat.owners.size(); ++t) {
    for (const Fact& f : cat.facts[t]) {
      svc.delegate(cat.owners[t], cat.epsilons[t], cat.providers[f.provider]);
    }
  }
}

std::vector<std::uint32_t> make_key_stream(std::size_t n_owners,
                                           std::size_t batch,
                                           std::size_t batches,
                                           std::uint64_t seed) {
  eppi::Rng rng(seed);
  std::vector<std::uint32_t> rank_to_owner(n_owners);
  std::iota(rank_to_owner.begin(), rank_to_owner.end(), 0u);
  std::shuffle(rank_to_owner.begin(), rank_to_owner.end(), rng);
  const eppi::ZipfSampler zipf(n_owners, 0.99);
  std::vector<std::uint32_t> keys(batch * batches);
  for (auto& k : keys) k = rank_to_owner[zipf.sample(rng)];
  return keys;
}

ReaderPool::ReaderPool(const eppi::core::LocatorService& svc,
                       const Catalog& cat, std::uint64_t seed,
                       ReaderOptions options)
    : svc_(svc), cat_(cat), options_(options) {
  keys_.reserve(kReaders);
  results_.resize(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    keys_.push_back(make_key_stream(cat.owners.size(), kBatch,
                                    std::size_t{1} << 14,
                                    seed * 1000003 + 17 * (t + 1)));
    results_[t].raw_us.reserve(kRawSamples);
  }
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads_.emplace_back([this, t] { run(t); });
  }
}

ReaderPool::~ReaderPool() {
  stop_.store(true);
  go_.store(true);
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void ReaderPool::start() {
  started_ = std::chrono::steady_clock::now();
  go_.store(true, std::memory_order_release);
}

ReaderResult ReaderPool::stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& th : threads_) th.join();
  ReaderResult all;
  all.wall_s = seconds_since(started_);
  for (const ReaderResult& r : results_) {
    if (all.windows.size() < r.windows.size()) {
      all.windows.resize(r.windows.size());
    }
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      all.windows[w].merge(r.windows[w]);
    }
    all.building.merge(r.building);
    all.idle.merge(r.idle);
    all.raw_us.insert(all.raw_us.end(), r.raw_us.begin(), r.raw_us.end());
    all.calls += r.calls;
    all.tally.merge(r.tally);
  }
  return all;
}

void ReaderPool::run(std::size_t t) {
  while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  CollectorGuard guard(options_.collector);
  ReaderResult& out = results_[t];
  const std::vector<std::uint32_t>& keys = keys_[t];
  const std::size_t n_batches = keys.size() / kBatch;
  std::vector<std::string> batch(kBatch);
  bool plant = options_.plant && t == 0;
  for (std::size_t b = 0; !stop_.load(std::memory_order_acquire); ++b) {
    if (options_.collector != nullptr) options_.collector->checkpoint();
    const std::uint32_t* ids = &keys[(b % n_batches) * kBatch];
    for (std::size_t k = 0; k < kBatch; ++k) batch[k] = cat_.owners[ids[k]];
    const bool building = options_.building != nullptr &&
                          options_.building->load(std::memory_order_acquire);
    eppi::core::LocatorService::BatchQueryResult result;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      result = svc_.query_ppi_many(batch);
    } catch (const std::exception&) {
      out.tally.record_failed(kBatch);
      continue;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const long window =
        options_.window != nullptr
            ? options_.window->load(std::memory_order_acquire)
            : static_cast<long>(
                  std::chrono::duration<double>(t1 - started_).count() /
                  options_.window_s);
    if (window >= 0) {
      const auto w = static_cast<std::size_t>(window);
      if (out.windows.size() <= w) out.windows.resize(w + 1);
      out.windows[w].record(us);
    }
    if (out.raw_us.size() < kRawSamples) out.raw_us.push_back(us);
    ++out.calls;
    if (options_.building != nullptr) {
      (building ? out.building : out.idle).record(us);
    }
    for (std::size_t k = 0; k < kBatch; ++k) {
      auto& answer = result.providers[k];
      const auto& facts = cat_.facts[ids[k]];
      if (plant && !facts.empty()) {
        std::erase(answer, cat_.providers[facts.front().provider]);
        plant = false;
      }
      out.tally.record(answer_covers(answer, facts, result.epoch,
                                     cat_.providers));
    }
  }
}

}  // namespace eppi::perfbench
