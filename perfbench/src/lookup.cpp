// lookup: read-only serving. A centrally built index over m=64 providers
// and n=2·10^5 owners; two closed-loop client threads issue
// query_ppi_many batches of 16 Zipf(0.99) owners. Almost all the time is in
// core's query tier (lexicon → snapshot → posting decode → name copies);
// none is in mpc, secret or storage.
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "core/lexicon.h"
#include "core/posting_index.h"
#include "serving.h"
#include "workload.h"

namespace eppi::perfbench {

namespace {

constexpr std::size_t kProviders = 64;
constexpr std::size_t kOwners = 200000;
constexpr int kSetups = 5;
// Read figures are medians over windows of this length.
constexpr double kReadWindowS = 0.5;

struct Served {
  Catalog cat;
  std::unique_ptr<eppi::core::LocatorService> svc;
  double delegate_s = 0.0;
  double build_full_s = 0.0;
};

Served build_service(const RunConfig& cfg) {
  Served s;
  eppi::Rng rng(cfg.seed);
  s.cat = make_catalog(kProviders, kOwners, rng);
  eppi::core::LocatorService::Options o;
  o.distributed = false;
  o.seed = cfg.seed;
  s.svc = std::make_unique<eppi::core::LocatorService>(o);
  auto t0 = Clock::now();
  delegate_catalog(*s.svc, s.cat);
  s.delegate_s = seconds_since(t0);
  t0 = Clock::now();
  s.svc->construct_ppi();
  s.build_full_s = seconds_since(t0);
  return s;
}

// Per-layer pass over reader 0's key stream, single-threaded, after the
// timed window: each step of the query path timed around a public call.
void layer_pass(const Served& s, const std::vector<std::uint32_t>& keys,
                const std::vector<double>& samples, Outcome& out) {
  const Catalog& cat = s.cat;
  const auto& svc = *s.svc;
  const double n_keys = static_cast<double>(keys.size());

  std::vector<std::pair<std::string, eppi::core::IdentityId>> entries;
  entries.reserve(cat.owners.size());
  for (std::size_t t = 0; t < cat.owners.size(); ++t) {
    entries.emplace_back(cat.owners[t], static_cast<eppi::core::IdentityId>(t));
  }
  const eppi::core::Lexicon lexicon(std::move(entries));
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (const std::uint32_t id : keys) {
    sink += lexicon.find(cat.owners[id]).value_or(0);
  }
  const double lexicon_ns = seconds_since(t0) * 1e9 / n_keys;

  const eppi::core::PostingIndex postings(svc.index());
  std::vector<eppi::core::ProviderId> decoded;
  std::size_t answered = 0;
  t0 = Clock::now();
  for (const std::uint32_t id : keys) {
    postings.query_into(id, decoded);
    answered += decoded.size();
  }
  const double posting_ns = seconds_since(t0) * 1e9 / n_keys;

  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const std::uint32_t id : keys) names.push_back(cat.owners[id]);
  t0 = Clock::now();
  for (std::size_t b = 0; b + kBatch <= names.size(); b += kBatch) {
    sink += svc.query_ppi_many(std::span(names).subspan(b, kBatch))
                .providers.size();
  }
  const double many_ns = seconds_since(t0) * 1e9 / n_keys;

  const std::size_t singles = std::min<std::size_t>(names.size(), 1 << 16);
  std::vector<double> single_us;
  single_us.reserve(singles);
  for (std::size_t k = 0; k < singles; ++k) {
    const auto q0 = Clock::now();
    sink += svc.query_ppi(names[k]).size();
    single_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - q0).count());
  }

  // LatencyHistogram::record from both client threads at once, as the
  // service's own metrics see it, over the run's measured latencies.
  eppi::LatencyHistogram histogram;
  constexpr std::size_t kRecords = std::size_t{1} << 22;
  t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < kRecords; ++k) {
          histogram.record(samples[(k * kReaders + t) % samples.size()]);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double record_ns =
      seconds_since(t0) * 1e9 / static_cast<double>(kRecords);
  if (histogram.snapshot().total != kRecords * kReaders) sink = 0;

  out.per_layer.push_back({"core.lexicon_find_ns", lexicon_ns, "ns"});
  out.per_layer.push_back({"core.posting_query_ns", posting_ns, "ns"});
  out.per_layer.push_back({"core.answer_providers_avg",
                           static_cast<double>(answered) / n_keys, "count"});
  out.per_layer.push_back({"core.query_many_self_ns",
                           many_ns - lexicon_ns - posting_ns, "ns"});
  out.per_layer.push_back({"core.query_single_us", median(single_us), "us"});
  out.per_layer.push_back({"common.latency_record_ns", record_ns, "ns"});
  const auto footprint = postings.memory_footprint();
  out.per_layer.push_back(
      {"core.index_resident_mb",
       static_cast<double>(footprint.resident_bytes) / 1e6, "MB"});
  out.per_layer.push_back(
      {"core.lexicon_mb", static_cast<double>(lexicon.memory_bytes()) / 1e6,
       "MB"});
  out.per_layer.push_back({"core.delegate_s", s.delegate_s, "s"});
  out.per_layer.push_back({"core.build_full_s", s.build_full_s, "s"});
  if (sink == 0) out.notes.push_back("layer pass: empty results");
}

}  // namespace

Outcome run_lookup(const RunConfig& cfg) {
  Outcome out;

  // Set-up is repeated and its median reported; the last build serves.
  std::vector<double> setup_s;
  Served served;
  for (int k = 0; k < repeats(cfg, kSetups); ++k) {
    served = Served{};  // free the previous build before making the next
    const auto t0 = Clock::now();
    served = build_service(cfg);
    setup_s.push_back(seconds_since(t0));
  }

  std::unique_ptr<SpanCollector> collector;
  if (cfg.trace) {
    collector = std::make_unique<SpanCollector>(
        std::vector<std::string>{}, std::chrono::milliseconds(20));
  }
  ReaderOptions ro;
  ro.collector = collector.get();
  ro.window_s = kReadWindowS;
  ro.plant = cfg.plant == "recall";
  ReaderPool pool(*served.svc, served.cat, cfg.seed, ro);
  pool.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  ReaderResult r = pool.stop();
  out.tally.merge(r.tally);

  const WindowedReads reads = windowed_reads(
      r.windows, fixed_windows(r.wall_s, kReadWindowS), kBatch);
  out.notes.push_back(
      "reads: " + std::to_string(r.calls) +
      " query_ppi_many calls of " + std::to_string(kBatch) + " owners from " +
      std::to_string(kReaders) + " closed-loop clients, " +
      std::to_string(reads.samples) +
      " in full windows; p50 and owners/s are the median over " +
      std::to_string(reads.windows) + " windows");
  out.notes.push_back(sample_note("window p50s", reads.window_p50_us, "us"));
  out.notes.push_back(sample_note("set-ups", setup_s, "s"));
  // The workload's operation is one query_ppi_many call.
  out.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"ok_frac", out.tally.ok_frac(), "frac"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"op_p50_ms", reads.p50_us * 1e-3, "ms"},
  };
  if (cfg.trace) {
    out.per_layer.push_back({"core.read_p50_us", reads.p50_us, "us"});
    out.per_layer.push_back({"core.read_p99_us", reads.p99_us, "us"});
    out.per_layer.push_back(
        {"core.read_owners_per_s", reads.owners_per_s, "owners/s"});
  }

  if (collector != nullptr) {
    (void)collector->finish();
    out.per_layer.push_back({"obs.spans_drained",
                             static_cast<double>(collector->drained()),
                             "count"});
    out.per_layer.push_back({"obs.dropped_spans",
                             static_cast<double>(collector->dropped()),
                             "count"});
    layer_pass(served, pool.keys(0), r.raw_us, out);
  }
  return out;
}

}  // namespace eppi::perfbench
