// churn: writes beside reads. m=64 providers, n=10^5 owners, a PosixVfs
// EpochStore under the run's work directory. One writer runs centralized
// delta epochs — each delegates about 1% of the owners (new facts and ε
// updates) and calls construct_ppi — while two closed-loop readers run the
// lookup request stream. The schedule is whole delta_base_interval cycles
// (15 journaled deltas, then a full rebase, per cycle), so every run holds
// the same store lineage. A full rebuild of the final state in a fresh
// service and a cold start over the store close the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <unistd.h>

#include "core/epoch_store.h"
#include "serving.h"
#include "storage/posix_vfs.h"
#include "workload.h"

namespace eppi::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kProviders = 64;
constexpr std::size_t kOwners = 100000;
constexpr std::size_t kBaseInterval = 16;
// The schedule is a whole number of delta_base_interval cycles, sized from
// --seconds at this nominal cycle time (three cycles for --seconds 25), so
// equal arguments give every run the same rebases and store lineage.
constexpr double kCycleSeconds = 8.0;
constexpr int kSetups = 5;
constexpr std::size_t kColdSample = 256;
// Answers are compared as provider bitmasks.
static_assert(kProviders <= 64);
// Under the working directory (the checkout root when run by run.py).
constexpr const char* kWorkDir = ".bench_work";

// One delegation of the schedule: a new fact, or an ε update re-stating an
// existing one.
struct Op {
  std::uint32_t owner = 0;
  std::uint32_t provider = 0;
  double epsilon = 0.0;
};

// Removes the run's work directory however the run ends.
struct WorkDir {
  fs::path path;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

eppi::core::LocatorService::Options service_options(const RunConfig& cfg) {
  eppi::core::LocatorService::Options o;
  o.distributed = false;
  o.seed = cfg.seed;
  o.delta_base_interval = kBaseInterval;
  return o;
}

// The schedule: `epochs` steps of ~1% of the owners each, half new facts
// and half ε updates. New facts are appended to the catalog's facts, stamped
// with the epoch that first publishes them (`first_epoch` + step).
std::vector<std::vector<Op>> make_schedule(Catalog& cat, eppi::Rng& rng,
                                           std::size_t epochs,
                                           std::uint64_t first_epoch) {
  const std::size_t n = cat.owners.size();
  const std::size_t m = cat.providers.size();
  const std::size_t per_epoch = std::max<std::size_t>(1, n / 100);
  std::vector<std::vector<Op>> schedule(epochs);
  for (std::size_t k = 0; k < epochs; ++k) {
    for (std::size_t i = 0; i < per_epoch; ++i) {
      const auto t = static_cast<std::uint32_t>(rng.next_below(n));
      auto& facts = cat.facts[t];
      Op op{t, facts.front().provider, rng.next_double() * kEpsilonMax};
      if (i % 2 == 0 && facts.size() < m) {
        auto p = static_cast<std::uint32_t>(rng.next_below(m));
        while (std::any_of(facts.begin(), facts.end(),
                           [&](const Fact& f) { return f.provider == p; })) {
          p = static_cast<std::uint32_t>((p + 1) % m);
        }
        op.provider = p;
        facts.push_back(Fact{p, first_epoch + k});
      }
      cat.epsilons[t] = op.epsilon;
      schedule[k].push_back(op);
    }
  }
  return schedule;
}

struct Live {
  Catalog cat;
  std::vector<std::vector<Op>> schedule;
  std::unique_ptr<eppi::core::EpochStore> store;
  std::unique_ptr<eppi::core::LocatorService> svc;
  std::uint64_t base_epoch = 0;
};

Live set_up(const RunConfig& cfg, eppi::storage::PosixVfs& vfs,
            const std::string& dir) {
  Live live;
  eppi::Rng rng(cfg.seed);
  live.cat = make_catalog(kProviders, kOwners, rng);
  live.store = std::make_unique<eppi::core::EpochStore>(vfs, dir);
  live.svc = std::make_unique<eppi::core::LocatorService>(service_options(cfg));
  for (const auto& p : live.cat.providers) live.svc->register_provider(p);
  live.svc->attach_store(*live.store);
  delegate_catalog(*live.svc, live.cat);
  live.svc->construct_ppi();
  live.base_epoch = live.svc->last_rebuild().epoch;
  const auto cycles = std::max<long long>(1, std::llround(cfg.seconds /
                                                         kCycleSeconds));
  live.schedule = make_schedule(
      live.cat, rng, static_cast<std::size_t>(cycles) * kBaseInterval,
      live.base_epoch + 1);
  return live;
}

// Answers for `owners` from one query_ppi_many call; an exception leaves
// the answers empty (and the caller's checks fail).
eppi::core::LocatorService::BatchQueryResult query(
    const eppi::core::LocatorService& svc, const Catalog& cat,
    const std::vector<std::uint32_t>& owners) {
  std::vector<std::string> names;
  names.reserve(owners.size());
  for (const auto t : owners) names.push_back(cat.owners[t]);
  try {
    return svc.query_ppi_many(names);
  } catch (const std::exception&) {
    eppi::core::LocatorService::BatchQueryResult none;
    none.providers.resize(owners.size());
    return none;
  }
}

// Calls check(owner, answer, epoch) for every owner of the catalog. The
// owners are queried in batches, so the answers do not inflate
// peak_rss_mb.
template <typename Check>
void for_each_answer(const eppi::core::LocatorService& svc,
                     const Catalog& cat, Check&& check) {
  constexpr std::size_t kSweepBatch = 1024;
  std::vector<std::uint32_t> owners;
  for (std::size_t t0 = 0; t0 < cat.owners.size(); t0 += kSweepBatch) {
    owners.clear();
    const std::size_t end = std::min(t0 + kSweepBatch, cat.owners.size());
    for (std::size_t t = t0; t < end; ++t) {
      owners.push_back(static_cast<std::uint32_t>(t));
    }
    const auto answers = query(svc, cat, owners);
    for (std::size_t i = 0; i < owners.size(); ++i) {
      check(owners[i], std::span<const std::string>(answers.providers[i]),
            answers.epoch);
    }
  }
}

double file_mb(const fs::path& p) {
  std::error_code ec;
  const auto size = fs::file_size(p, ec);
  return ec ? 0.0 : static_cast<double>(size) / 1e6;
}

double newest_index_mb(const fs::path& dir) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("epoch-") && name.ends_with(".idx") &&
        (newest.empty() || entry.last_write_time() >
                               fs::last_write_time(newest))) {
      newest = entry.path();
    }
  }
  return newest.empty() ? 0.0 : file_mb(newest);
}

// Providers named in an answer, as a bitmask over the catalog's provider
// ids; a name outside the catalog sets no bit and makes `unknown` true.
std::uint64_t provider_mask(std::span<const std::string> answer,
                            const std::unordered_map<std::string,
                                                     std::uint32_t>& ids,
                            bool& unknown) {
  std::uint64_t mask = 0;
  for (const auto& name : answer) {
    const auto it = ids.find(name);
    if (it == ids.end()) {
      unknown = true;
    } else {
      mask |= std::uint64_t{1} << it->second;
    }
  }
  return mask;
}

double median_of(const std::vector<eppi::obs::SpanEvent>& events,
                 std::string_view name) {
  std::vector<double> v;
  for (const auto& ev : events) {
    if (ev.name_view() == name) v.push_back(span_seconds(ev));
  }
  return v.empty() ? 0.0 : median(std::move(v));
}

}  // namespace

Outcome run_churn(const RunConfig& cfg) {
  Outcome out;
  WorkDir work{fs::path(kWorkDir) / ("churn-" + std::to_string(::getpid()))};
  fs::create_directories(work.path);
  eppi::storage::PosixVfs vfs;

  // Set-up (repeated, median reported): input generation, attach_store on
  // an empty store, the first full build and its commit.
  std::vector<double> setup_s;
  Live live;
  std::string dir;
  for (int k = 0; k < repeats(cfg, kSetups); ++k) {
    live = Live{};
    if (!dir.empty()) fs::remove_all(dir);
    dir = (work.path / ("store-" + std::to_string(k))).string();
    const auto t0 = Clock::now();
    live = set_up(cfg, vfs, dir);
    setup_s.push_back(seconds_since(t0));
  }
  Catalog& cat = live.cat;
  auto& svc = *live.svc;
  const double manifest0 = file_mb(fs::path(dir) / "MANIFEST");

  std::unique_ptr<SpanCollector> collector;
  if (cfg.trace) {
    collector = std::make_unique<SpanCollector>(
        std::vector<std::string>{"serve.", "store."},
        std::chrono::milliseconds(20));
  }
  std::atomic<bool> building{false};
  // Each epoch, from its first delegate to the return of its construct_ppi
  // (snapshot published), is one read window: every window holds a publish.
  std::atomic<int> epoch_window{-1};
  ReaderOptions ro;
  ro.building = &building;
  ro.window = &epoch_window;
  ro.collector = collector.get();
  ro.plant = cfg.plant == "recall";
  ReaderPool pool(svc, cat, cfg.seed, ro);

  std::vector<double> epoch_s, delegate_s, recomputed, churn_cells;
  std::vector<Window> epoch_windows;
  pool.start();
  const std::size_t epochs = live.schedule.size();
  for (std::size_t k = 0; k < epochs; ++k) {
    const double begin_s = pool.elapsed_s();
    epoch_window.store(static_cast<int>(k), std::memory_order_release);
    const auto t0 = Clock::now();
    for (const Op& op : live.schedule[k]) {
      svc.delegate(cat.owners[op.owner], op.epsilon,
                   cat.providers[op.provider]);
    }
    delegate_s.push_back(seconds_since(t0));
    building.store(true, std::memory_order_release);
    bool built = true;
    try {
      svc.construct_ppi();
    } catch (const std::exception&) {
      built = false;
    }
    building.store(false, std::memory_order_release);
    epoch_window.store(-1, std::memory_order_release);
    epoch_s.push_back(seconds_since(t0));
    epoch_windows.push_back(Window{begin_s, pool.elapsed_s()});

    // Check: the epoch is the next one, and every owner delegated in it
    // is answered with all its facts.
    const auto& info = svc.last_rebuild();
    recomputed.push_back(static_cast<double>(info.recomputed));
    churn_cells.push_back(static_cast<double>(info.churn));
    std::vector<std::uint32_t> touched;
    for (const Op& op : live.schedule[k]) touched.push_back(op.owner);
    auto answers = query(svc, cat, touched);
    if (k == 0 && cfg.plant == "facts") {
      std::erase(answers.providers[0],
                 cat.providers[cat.facts[touched[0]].front().provider]);
    }
    bool ok = built && !info.degraded &&
              info.epoch == live.base_epoch + k + 1 &&
              answers.epoch == info.epoch;
    for (std::size_t i = 0; ok && i < touched.size(); ++i) {
      ok = answer_covers(answers.providers[i], cat.facts[touched[i]],
                         answers.epoch, cat.providers);
    }
    out.tally.record(ok);
  }
  ReaderResult r = pool.stop();
  out.tally.merge(r.tally);

  // Final sweep: every fact delegated so far is in the last epoch. The
  // answers are kept as provider masks for the reference rebuild below.
  std::unordered_map<std::string, std::uint32_t> provider_ids;
  for (std::uint32_t p = 0; p < cat.providers.size(); ++p) {
    provider_ids.emplace(cat.providers[p], p);
  }
  const std::uint64_t last_epoch = svc.last_rebuild().epoch;
  std::vector<std::uint64_t> live_masks(cat.owners.size());
  bool unknown_provider = false;
  for_each_answer(svc, cat, [&](std::uint32_t owner,
                                std::span<const std::string> answer,
                                std::uint64_t epoch) {
    live_masks[owner] = provider_mask(answer, provider_ids, unknown_provider);
    out.tally.record(epoch == last_epoch &&
                     answer_covers(answer, cat.facts[owner], epoch,
                                   cat.providers));
  });
  std::vector<eppi::obs::SpanEvent> spans;
  if (collector != nullptr) spans = collector->finish();

  // The live answers a cold start must reproduce exactly.
  eppi::Rng pick(cfg.seed ^ 0x5eedc01dULL);
  std::vector<std::uint32_t> sample;
  for (std::size_t i = 0; i < kColdSample; ++i) {
    sample.push_back(
        static_cast<std::uint32_t>(pick.next_below(cat.owners.size())));
  }
  auto expected = query(svc, cat, sample).providers;
  if (cfg.plant == "cold") expected[0].push_back("provider-planted");
  const double manifest1 = file_mb(fs::path(dir) / "MANIFEST");
  const double index_mb = newest_index_mb(dir);
  live.svc.reset();
  live.store.reset();

  // Reference: a fresh service with the same options and seed, no store,
  // given the final state of every owner and built once, in full. Delta
  // epochs are bit-identical to a full rebuild (pinned by the library's
  // tests), so it must answer every owner exactly as the live service's
  // last epoch did; a delta that dropped, kept or mis-spliced a cell shows.
  if (cfg.plant == "rebuild") live_masks[0] ^= std::uint64_t{1};
  {
    eppi::core::LocatorService reference(service_options(cfg));
    delegate_catalog(reference, cat);
    reference.construct_ppi();
    for_each_answer(reference, cat, [&](std::uint32_t owner,
                                        std::span<const std::string> answer,
                                        std::uint64_t) {
      bool unknown = unknown_provider;
      const std::uint64_t mask = provider_mask(answer, provider_ids, unknown);
      out.tally.record(!unknown && mask == live_masks[owner]);
    });
  }

  // Cold start, the way `eppi_cli serve` starts: a fresh service, the
  // provider catalog registered, the store opened (recovery), attach_store,
  // then the first answered query. Its answers are checked on every run;
  // its times are per-layer figures of the traced run.
  double cold_s = 0.0, open_s = 0.0, attach_s = 0.0, first_us = 0.0;
  std::size_t replayed = 0;
  {
    const auto c0 = Clock::now();
    eppi::core::LocatorService fresh(service_options(cfg));
    for (const auto& p : cat.providers) fresh.register_provider(p);
    const auto c1 = Clock::now();
    eppi::core::EpochStore store(vfs, dir);
    const auto c2 = Clock::now();
    fresh.attach_store(store);
    const auto c3 = Clock::now();
    bool first_ok = true;
    try {
      (void)fresh.query_ppi(cat.owners[sample[0]]);
    } catch (const std::exception&) {
      first_ok = false;
    }
    const auto c4 = Clock::now();
    const auto secs = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    cold_s = secs(c0, c4);
    open_s = secs(c1, c2);
    attach_s = secs(c2, c3);
    first_us = secs(c3, c4) * 1e6;
    out.tally.record(first_ok);
    const auto cold = query(fresh, cat, sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      out.tally.record(cold.providers[i] == expected[i]);
    }
    for (const auto& rec : store.lineage()) replayed += rec.is_delta ? 1 : 0;
  }

  const WindowedReads reads =
      windowed_reads(r.windows, epoch_windows, kBatch);
  out.notes.push_back(
      "reads: " + std::to_string(r.calls) + " query_ppi_many calls (" +
      std::to_string(r.building.count()) +
      " during construct_ppi), " + std::to_string(reads.samples) +
      " inside epochs; p50, p99 and owners/s are the median over " +
      std::to_string(reads.windows) + " epoch windows; op_p50_ms over " +
      std::to_string(epoch_s.size()) + " epochs");
  out.notes.push_back(sample_note("set-ups", setup_s, "s"));
  out.notes.push_back(sample_note("epochs", epoch_s, "s"));
  out.notes.push_back("cold start: " + std::to_string(cold_s) + " s");
  // The workload's operation is one delta epoch.
  out.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"ok_frac", out.tally.ok_frac(), "frac"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"op_p50_ms", median(epoch_s) * 1e3, "ms"},
  };

  if (cfg.trace) {
    auto& pl = out.per_layer;
    pl.push_back({"core.read_p50_us", reads.p50_us, "us"});
    pl.push_back({"core.read_p99_us", reads.p99_us, "us"});
    pl.push_back({"core.read_owners_per_s", reads.owners_per_s, "owners/s"});
    pl.push_back({"core.delegate_batch_s", median(delegate_s), "s"});
    pl.push_back({"core.rebuild_delta_s",
                  median_of(spans, "serve.rebuild_delta"), "s"});
    pl.push_back({"core.publish_s", median_of(spans, "serve.publish"), "s"});
    pl.push_back({"storage.commit_delta_s",
                  median_of(spans, "store.commit_delta"), "s"});
    pl.push_back({"storage.rebase_commit_s", median_of(spans, "store.commit"),
                  "s"});
    pl.push_back({"core.recomputed_cols", median(recomputed), "count"});
    pl.push_back({"core.churn_cells", median(churn_cells), "count"});
    pl.push_back({"storage.journal_bytes_per_epoch",
                  (manifest1 - manifest0) * 1e6 / static_cast<double>(epochs),
                  "B"});
    pl.push_back({"storage.index_file_mb", index_mb, "MB"});
    pl.push_back({"storage.store_open_s", open_s, "s"});
    pl.push_back({"storage.replayed_deltas", static_cast<double>(replayed),
                  "count"});
    pl.push_back({"core.attach_store_s", attach_s, "s"});
    pl.push_back({"core.first_query_us", first_us, "us"});
    pl.push_back({"obs.cold_start_cover_frac",
                  (open_s + attach_s + first_us * 1e-6) / cold_s, "frac"});
    const auto p99_of = [](const FineHistogram& h) {
      return h.count() == 0 ? 0.0 : h.percentile(0.99);
    };
    pl.push_back({"core.read_p99_building_us", p99_of(r.building), "us"});
    pl.push_back({"core.read_p99_idle_us", p99_of(r.idle), "us"});
    pl.push_back({"obs.spans_drained",
                  static_cast<double>(collector->drained()), "count"});
    pl.push_back({"obs.dropped_spans",
                  static_cast<double>(collector->dropped()), "count"});
  }
  return out;
}

}  // namespace eppi::perfbench
