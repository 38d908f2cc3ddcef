// construct: distributed epochs. construct_distributed over m=8 providers
// (one cluster thread each), c=3 coordinators, n=2·10^4 owners,
// chernoff(0.9), mixing on, GMW backend, ε uniform in [0, 0.65], one epoch
// after another. Almost
// all the time is in secret (SecSumShare), mpc (CountBelow, MixAndReveal)
// and net; none is in serving or storage.
#include <algorithm>
#include <array>
#include <chrono>

#include "core/distributed_constructor.h"
#include "dataset/synthetic.h"
#include "workload.h"

namespace eppi::perfbench {

namespace {

constexpr std::size_t kProviders = 8;
constexpr std::size_t kOwners = 20000;
// More set-ups than the other workloads: each holds a warm-up epoch, which
// steal on the host slows several times over, so set-ups and epochs are
// both reported by quiet_median.
constexpr int kSetups = 5;
constexpr int kMinEpochs = 3;
// ε is uniform in [0, 0.65]. The mixing probability λ then sits near 0.27
// (about a third of the owners published to every provider, the rest with
// their β); with ε up to 1 it clamps to 1, every published cell is set and
// the recall check could not fail.
constexpr double kEpsilonMax = 0.65;

// The protocol's stages in order; each phase:* span names one.
constexpr std::array<const char*, 5> kStages = {
    "phase:secsum", "phase:count_below", "phase:mix_reveal",
    "phase:broadcast", "phase:publish"};

struct Input {
  eppi::BitMatrix truth;
  std::vector<double> epsilons;
};

Input make_input(const RunConfig& cfg) {
  eppi::Rng rng(cfg.seed);
  eppi::dataset::SyntheticConfig sc;
  sc.providers = kProviders;
  sc.identities = kOwners;
  sc.zipf_exponent = 0.9;
  sc.max_fraction = 0.5;
  Input in;
  in.truth = eppi::dataset::make_zipf_network(sc, rng).membership;
  in.epsilons =
      eppi::dataset::random_epsilons(sc.identities, rng, 0.0, kEpsilonMax);
  return in;
}

eppi::core::DistributedOptions options_for(const RunConfig& cfg,
                                           std::uint64_t epoch) {
  eppi::core::DistributedOptions o;
  o.policy = eppi::core::BetaPolicy::chernoff(0.9);
  o.enable_mixing = true;
  o.c = 3;
  o.backend = eppi::core::MpcBackend::kGmw;
  o.seed = cfg.seed * 1000 + epoch;  // fresh protocol randomness per epoch
  return o;
}

bool same_cost(const eppi::net::CostSnapshot& a,
               const eppi::net::CostSnapshot& b) {
  return a.bytes == b.bytes && a.messages == b.messages &&
         a.rounds == b.rounds;
}

// One epoch's stage split from its phase:* spans. A stage ends when its
// slowest party leaves it; its time is the distance from the previous
// stage's end (the first stage starts at the earliest phase:secsum start).
// The stage times therefore add up to the protocol's wall time.
struct StageSplit {
  std::array<double, kStages.size()> seconds{};
  std::array<std::uint64_t, kStages.size()> bytes{};  // summed over parties
  double total_s = 0.0;
};

StageSplit split_stages(const std::vector<eppi::obs::SpanEvent>& events) {
  StageSplit split;
  std::array<std::uint64_t, kStages.size()> end{};
  std::uint64_t start = UINT64_MAX;
  for (const auto& ev : events) {
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      if (ev.name_view() != kStages[s]) continue;
      end[s] = std::max(end[s], ev.end_ns);
      split.bytes[s] += span_attr_u64(ev, "bytes");
      if (s == 0) start = std::min(start, ev.start_ns);
    }
  }
  if (start == UINT64_MAX) return split;
  std::uint64_t prev = start;
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    const std::uint64_t e = std::max(end[s], prev);
    split.seconds[s] = static_cast<double>(e - prev) * 1e-9;
    prev = e;
  }
  split.total_s = static_cast<double>(prev - start) * 1e-9;
  return split;
}

}  // namespace

Outcome run_construct(const RunConfig& cfg) {
  Outcome out;

  // Set-up: input generation plus one untimed warm-up epoch, repeated; the
  // warm-up's cost counters are the reference every epoch must repeat.
  std::vector<double> setup_s, setup_steal;
  Input in;
  eppi::net::CostSnapshot reference;
  for (int k = 0; k < repeats(cfg, kSetups); ++k) {
    const CpuTicks ticks0 = cpu_ticks();
    const auto t0 = Clock::now();
    in = make_input(cfg);
    const auto warm = eppi::core::construct_distributed(
        in.truth, in.epsilons, options_for(cfg, k));
    setup_s.push_back(seconds_since(t0));
    setup_steal.push_back(steal_share(ticks0, cpu_ticks()));
    if (k == 0) reference = warm.report.total_cost;
  }

  if (cfg.trace) (void)eppi::obs::default_sink().drain();
  const std::uint64_t dropped_base = eppi::obs::default_sink().dropped();
  std::uint64_t drained = 0;

  std::vector<double> epoch_s, epoch_steal;
  std::vector<StageSplit> splits;
  eppi::core::DistributedReport last;
  const auto window = Clock::now();
  for (std::uint64_t e = kSetups;
       epoch_s.size() < kMinEpochs || seconds_since(window) < cfg.seconds;
       ++e) {
    const CpuTicks ticks0 = cpu_ticks();
    const auto t0 = Clock::now();
    auto result = eppi::core::construct_distributed(in.truth, in.epsilons,
                                                    options_for(cfg, e));
    epoch_s.push_back(seconds_since(t0));
    epoch_steal.push_back(steal_share(ticks0, cpu_ticks()));
    // Checks: 100% recall (every true cell published) and the same wire
    // cost as every other epoch of the run.
    eppi::BitMatrix published = result.index.matrix();
    eppi::net::CostSnapshot cost = result.report.total_cost;
    if (e == kSetups) {
      if (cfg.plant == "recall") {
        published = eppi::BitMatrix(published.rows(), published.cols());
      }
      if (cfg.plant == "wire") cost.bytes += 1;
    }
    out.tally.record(missing_cells(in.truth, published) == 0 &&
                     same_cost(cost, reference));
    if (cfg.trace) {
      const auto events = eppi::obs::default_sink().drain();
      drained += events.size();
      splits.push_back(split_stages(events));
    }
    last = std::move(result.report);
  }

  const double construct_s = quiet_median(epoch_s, epoch_steal);
  out.notes.push_back(
      "setup_s and op_p50_ms (one epoch) are medians over the least-stolen "
      "third of " +
      std::to_string(setup_s.size()) + " set-ups and " +
      std::to_string(epoch_s.size()) + " epochs");
  out.notes.push_back(sample_note("set-ups", setup_s, "s"));
  out.notes.push_back(sample_note("set-up steal", setup_steal, "frac"));
  out.notes.push_back(sample_note("epochs", epoch_s, "s"));
  out.notes.push_back(sample_note("epoch steal", epoch_steal, "frac"));
  out.end_to_end = {
      {"setup_s", quiet_median(setup_s, setup_steal), "s"},
      {"ok_frac", out.tally.ok_frac(), "frac"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"op_p50_ms", construct_s * 1e3, "ms"},
  };

  if (cfg.trace) {
    const auto stage_median = [&](std::size_t s) {
      std::vector<double> v;
      for (const auto& sp : splits) v.push_back(sp.seconds[s]);
      return median(v);
    };
    std::vector<double> totals;
    for (const auto& sp : splits) totals.push_back(sp.total_s);
    const StageSplit& any = splits.back();  // byte attrs repeat exactly
    auto& pl = out.per_layer;
    pl.push_back({"secret.secsum_s", stage_median(0), "s"});
    pl.push_back({"mpc.count_below_s", stage_median(1), "s"});
    pl.push_back({"mpc.mix_reveal_s", stage_median(2), "s"});
    pl.push_back({"net.broadcast_s", stage_median(3), "s"});
    pl.push_back({"core.party_publish_s", stage_median(4), "s"});
    pl.push_back({"obs.phase_sum_frac", median(totals) / construct_s, "frac"});
    pl.push_back({"net.wire_mb", static_cast<double>(reference.bytes) / 1e6,
                  "MB"});
    pl.push_back({"mpc.count_below_and_gates",
                  static_cast<double>(last.count_below_stats.and_gates),
                  "count"});
    pl.push_back({"mpc.mix_reveal_and_gates",
                  static_cast<double>(last.mix_reveal_stats.and_gates),
                  "count"});
    pl.push_back({"mpc.count_below_and_depth",
                  static_cast<double>(last.count_below_stats.and_depth),
                  "count"});
    pl.push_back({"mpc.mix_reveal_and_depth",
                  static_cast<double>(last.mix_reveal_stats.and_depth),
                  "count"});
    pl.push_back({"net.messages",
                  static_cast<double>(last.total_cost.messages), "count"});
    pl.push_back({"net.rounds", static_cast<double>(last.total_cost.rounds),
                  "count"});
    pl.push_back({"secret.secsum_bytes", static_cast<double>(any.bytes[0]),
                  "B"});
    pl.push_back({"mpc.count_below_bytes", static_cast<double>(any.bytes[1]),
                  "B"});
    pl.push_back({"mpc.mix_reveal_bytes", static_cast<double>(any.bytes[2]),
                  "B"});
    pl.push_back({"obs.spans_drained", static_cast<double>(drained),
                  "count"});
    pl.push_back({"obs.dropped_spans",
                  static_cast<double>(eppi::obs::default_sink().dropped() -
                                      dropped_base),
                  "count"});
  }
  return out;
}

}  // namespace eppi::perfbench
