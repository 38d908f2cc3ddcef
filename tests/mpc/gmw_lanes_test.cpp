// Lane-program tests for the GMW engine.
//
// The engine runs groups of (template circuit, lane count) in lockstep, one
// instance per bit lane, optionally followed by a tail that takes the
// groups' outputs still shared. Here it must agree with cleartext
// evaluation lane by lane (random templates, lane counts around the 64-bit
// word, zero-AND groups, tails), and the lane forms of CountBelow and
// MixAndReveal must agree with plain_count_below / plain_mix_reveal —
// including the ξ encoder's edge cases and a fault-tolerant construction
// that commits over fewer providers than it started with.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/rng.h"
#include "core/beta_policy.h"
#include "core/distributed_constructor.h"
#include "dataset/synthetic.h"
#include "mpc/circuit_builder.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "mpc/plain_eval.h"
#include "net/cluster.h"
#include "secret/mod_ring.h"
#include "secret/sec_sum_share.h"

namespace eppi::mpc {
namespace {

using eppi::net::Cluster;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// Runs a lane program among inputs.size() parties and returns the opened
// outputs, checking that every party opened the same bits and that the
// session took gmw_round_count rounds.
std::vector<bool> run_program(std::span<const CircuitGroup> groups,
                              const std::vector<std::vector<bool>>& inputs,
                              const Circuit* tail, std::uint64_t seed) {
  const std::size_t n = inputs.size();
  Cluster cluster(n, seed);
  std::vector<std::vector<bool>> outputs(n);
  cluster.run([&](PartyContext& ctx) {
    GmwSession session;
    for (std::size_t i = 0; i < n; ++i) {
      session.parties.push_back(static_cast<PartyId>(i));
    }
    outputs[ctx.id()] =
        run_gmw_party(ctx, session, groups, inputs[ctx.id()], tail);
  });
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "party " << i << " disagrees";
  }
  EXPECT_EQ(cluster.meter().snapshot().rounds, gmw_round_count(groups, tail));
  return outputs[0];
}

// --- random templates ----------------------------------------------------------

// A random template over `n_inputs` input wires with owners drawn from
// [0, parties): random XOR / NOT / constant gates and, unless `xor_only`,
// AND gates, each taking one operand from the last few wires so the
// AND-depth grows. Ends with a few outputs (constants among them now and
// then).
Circuit random_template(std::size_t parties, std::size_t n_inputs,
                        bool xor_only, eppi::Rng& rng) {
  CircuitBuilder cb;
  std::vector<Wire> pool;
  for (std::size_t k = 0; k < n_inputs; ++k) {
    pool.push_back(
        cb.input_bit(static_cast<std::uint32_t>(rng.next_below(parties))));
  }
  const auto recent = [&] {
    return pool[pool.size() - 1 -
                rng.next_below(std::min<std::size_t>(pool.size(), 6))];
  };
  const auto any = [&] { return pool[rng.next_below(pool.size())]; };
  const std::uint64_t n_gates = 10 + rng.next_below(60);
  for (std::uint64_t g = 0; g < n_gates; ++g) {
    switch (rng.next_below(xor_only ? 3 : 5)) {
      case 0:
        pool.push_back(cb.Xor(recent(), any()));
        break;
      case 1:
        pool.push_back(cb.Not(recent()));
        break;
      case 2:
        pool.push_back(cb.Xor(recent(), cb.constant(rng.bernoulli(0.5))));
        break;
      default:
        pool.push_back(cb.And(recent(), any()));
        break;
    }
  }
  const std::uint64_t n_outputs = 1 + rng.next_below(4);
  for (std::uint64_t o = 0; o < n_outputs; ++o) cb.output(any());
  if (rng.next_below(4) == 0) cb.output(cb.constant(rng.bernoulli(0.5)));
  cb.output(pool.back());
  return cb.take();
}

struct Instance {
  std::vector<Circuit> templates;
  std::vector<std::uint64_t> lanes;
  // values[g][l]: lane l's input bits of group g, in declaration order.
  std::vector<std::vector<std::vector<bool>>> values;
};

std::vector<CircuitGroup> groups_of(const Instance& inst) {
  std::vector<CircuitGroup> groups;
  for (std::size_t g = 0; g < inst.templates.size(); ++g) {
    groups.push_back({&inst.templates[g], inst.lanes[g]});
  }
  return groups;
}

// Party p's engine input: group by group, its input wires in declaration
// order, each wire's bit for every lane.
std::vector<std::vector<bool>> engine_inputs(const Instance& inst,
                                             std::size_t parties) {
  std::vector<std::vector<bool>> inputs(parties);
  for (std::size_t g = 0; g < inst.templates.size(); ++g) {
    const Circuit& t = inst.templates[g];
    for (std::size_t idx = 0; idx < t.inputs().size(); ++idx) {
      const std::uint32_t owner = t.input_owner(t.inputs()[idx]);
      for (std::uint64_t l = 0; l < inst.lanes[g]; ++l) {
        inputs[owner].push_back(inst.values[g][l][idx]);
      }
    }
  }
  return inputs;
}

// Cleartext outputs of every group in (group, output wire, lane) order.
std::vector<bool> plain_outputs(const Instance& inst) {
  std::vector<bool> out;
  for (std::size_t g = 0; g < inst.templates.size(); ++g) {
    std::vector<std::vector<bool>> per_lane;
    for (std::uint64_t l = 0; l < inst.lanes[g]; ++l) {
      per_lane.push_back(evaluate_plain(inst.templates[g], inst.values[g][l]));
    }
    for (std::size_t o = 0; o < inst.templates[g].outputs().size(); ++o) {
      for (std::uint64_t l = 0; l < inst.lanes[g]; ++l) {
        out.push_back(per_lane[l][o]);
      }
    }
  }
  return out;
}

Instance random_instance(std::size_t parties,
                         const std::vector<std::uint64_t>& lanes,
                         const std::vector<bool>& xor_only, eppi::Rng& rng) {
  Instance inst;
  for (std::size_t g = 0; g < lanes.size(); ++g) {
    inst.templates.push_back(random_template(
        parties, 2 + rng.next_below(6), xor_only[g], rng));
    inst.lanes.push_back(lanes[g]);
    std::vector<std::vector<bool>> per_lane(lanes[g]);
    for (auto& bits : per_lane) {
      for (std::size_t k = 0; k < inst.templates[g].inputs().size(); ++k) {
        bits.push_back(rng.bernoulli(0.5));
      }
    }
    inst.values.push_back(std::move(per_lane));
  }
  return inst;
}

struct LaneCase {
  std::size_t parties;
  std::vector<std::uint64_t> lanes;
  std::vector<bool> xor_only;
};

const LaneCase kLaneCases[] = {
    {2, {1}, {false}},
    {3, {63}, {false}},
    {3, {64}, {false}},
    {4, {65}, {false}},
    {2, {2000}, {false}},
    {3, {1, 63, 64, 65}, {false, false, false, false}},
    {5, {65, 7, 2000}, {false, true, false}},
    {3, {130}, {true}},
    {4, {3, 64, 1}, {true, false, true}},
};

TEST(GmwLanesTest, RandomGroupsMatchPlainEvaluation) {
  std::uint64_t trial = 0;
  for (const LaneCase& c : kLaneCases) {
    eppi::Rng rng(500 + trial);
    const Instance inst = random_instance(c.parties, c.lanes, c.xor_only, rng);
    for (std::size_t g = 0; g < inst.templates.size(); ++g) {
      if (c.xor_only[g]) {
        EXPECT_EQ(inst.templates[g].stats().and_gates, 0u);
      }
    }
    const auto groups = groups_of(inst);
    const auto got = run_program(groups, engine_inputs(inst, c.parties),
                                 nullptr, trial + 1);
    EXPECT_EQ(got, plain_outputs(inst)) << "trial " << trial;
    ++trial;
  }
}

TEST(GmwLanesTest, TailTakesSharedGroupOutputs) {
  std::uint64_t trial = 0;
  for (const LaneCase& c : kLaneCases) {
    eppi::Rng rng(700 + trial);
    const Instance inst = random_instance(
        c.parties, c.lanes, std::vector<bool>(c.lanes.size(), false), rng);
    const std::vector<bool> handed = plain_outputs(inst);
    // A tail over every group output; its input owners are nominal.
    const Circuit tail = random_template(c.parties, handed.size(),
                                         /*xor_only=*/trial % 4 == 3, rng);
    const auto groups = groups_of(inst);
    const auto got = run_program(groups, engine_inputs(inst, c.parties),
                                 &tail, trial + 11);
    EXPECT_EQ(got, evaluate_plain(tail, handed)) << "trial " << trial;
    ++trial;
  }
}

TEST(GmwLanesTest, RejectsMismatchedTail) {
  CircuitBuilder cb;
  cb.output(cb.And(cb.input_bit(0), cb.input_bit(1)));
  const Circuit block = cb.take();
  CircuitBuilder tb;
  const Wire x = tb.input_bit(0);
  const Wire y = tb.input_bit(0);
  tb.output(tb.And(x, y));
  const Circuit tail = tb.take();  // two inputs, but the group opens three
  const CircuitGroup group{&block, 3};
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 GmwSession session;
                 session.parties = {0, 1};
                 (void)run_gmw_party(ctx, session, std::span(&group, 1),
                                     std::vector<bool>(3, true), &tail);
               }),
               eppi::ConfigError);
}

// --- e-PPI lane forms --------------------------------------------------------

struct EppiLaneCase {
  std::size_t c;
  std::uint64_t q;
  // Lanes per threshold: group g gets threshold thresholds[g].
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> thresholds;
};

// Thresholds 0 and 2^width fold the comparison to a constant.
const EppiLaneCase kEppiLaneCases[] = {
    {3, 16, {1, 63, 64, 65, 2000}, {1, 2, 3, 4, 5}},
    {2, 13, {64, 1, 65}, {0, 7, 16}},
    {4, 37, {63, 200, 5}, {12, 36, 64}},
    {3, 16, {1}, {16}},
    {2, 16, {130, 2}, {0, 9}},
};

unsigned width_of(std::uint64_t q) {
  return eppi::secret::ModRing(q).bit_width();
}

std::vector<std::uint64_t> spread_thresholds(const EppiLaneCase& ec,
                                             eppi::Rng& rng) {
  std::vector<std::uint64_t> t;
  for (std::size_t g = 0; g < ec.sizes.size(); ++g) {
    t.insert(t.end(), ec.sizes[g], ec.thresholds[g]);
  }
  // Shuffle so each block's lanes are scattered identities.
  for (std::size_t j = t.size(); j > 1; --j) {
    std::swap(t[j - 1], t[rng.next_below(j)]);
  }
  return t;
}

// Per-party shares of per-identity frequencies drawn near the thresholds.
std::vector<std::vector<std::uint64_t>> shares_near(
    const std::vector<std::uint64_t>& thresholds, std::size_t c,
    std::uint64_t q, eppi::Rng& rng) {
  std::vector<std::vector<std::uint64_t>> shares(
      c, std::vector<std::uint64_t>(thresholds.size()));
  for (std::size_t j = 0; j < thresholds.size(); ++j) {
    const std::uint64_t t = std::min(thresholds[j], q - 1);
    const std::uint64_t lo = t >= 2 ? t - 2 : 0;
    const std::uint64_t s = std::min(q - 1, lo + rng.next_below(5));
    std::uint64_t rest = s;
    for (std::size_t i = 1; i < c; ++i) {
      shares[i][j] = rng.next_below(q);
      rest = (rest + q - shares[i][j]) % q;
    }
    shares[0][j] = rest;
  }
  return shares;
}

std::vector<bool> run_lane_circuits(
    const LaneCircuits& lc, const std::vector<std::vector<bool>>& inputs,
    std::uint64_t seed) {
  const auto groups = lc.groups();
  return run_program(groups, inputs, lc.tail_circuit(), seed);
}

TEST(GmwLanesTest, CountBelowLanesMatchPlainReference) {
  std::uint64_t trial = 0;
  for (const EppiLaneCase& ec : kEppiLaneCases) {
    eppi::Rng rng(31 + trial);
    CountBelowSpec spec;
    spec.c = ec.c;
    spec.q = ec.q;
    spec.thresholds = spread_thresholds(ec, rng);
    const std::size_t n = spec.thresholds.size();
    for (std::size_t j = 0; j < n; ++j) {
      spec.xi_ranks.push_back(rng.next_below(n / 2 + 2));  // ties and 0s
    }
    const auto shares = shares_near(spec.thresholds, ec.c, ec.q, rng);
    for (const bool with_ranks : {true, false}) {
      CountBelowSpec s = spec;
      if (!with_ranks) s.xi_ranks.clear();
      const LaneCircuits lc = build_count_below_lanes(s);
      ASSERT_EQ(lc.blocks.size(), ec.sizes.size());
      std::vector<std::vector<bool>> inputs;
      for (const auto& party : shares) {
        inputs.push_back(lane_input_bits(lc, eppi::wrap_shares(party),
                                         width_of(ec.q)));
      }
      const auto got = decode_count_below(
          s, run_lane_circuits(lc, inputs, trial + 3));
      const auto want = plain_count_below(s, shares);
      EXPECT_EQ(got.common_count, want.common_count) << "trial " << trial;
      EXPECT_EQ(got.max_xi_rank, want.max_xi_rank) << "trial " << trial;
      // The blocks are the scalar circuit's blocks, so the block stage has
      // the scalar circuit's input wires.
      EXPECT_EQ(lc.stats().input_wires,
                build_count_below_circuit(s).stats().input_wires);
    }
    ++trial;
  }
}

TEST(GmwLanesTest, MixRevealLanesMatchPlainReferenceAndScalarLayers) {
  std::uint64_t trial = 0;
  for (const EppiLaneCase& ec : kEppiLaneCases) {
    eppi::Rng rng(57 + trial);
    MixRevealSpec spec;
    spec.c = ec.c;
    spec.q = ec.q;
    spec.lambda = 0.15 + 0.2 * static_cast<double>(trial % 4);
    spec.coin_bits = 16;
    spec.thresholds = spread_thresholds(ec, rng);
    const std::size_t n = spec.thresholds.size();
    const auto shares = shares_near(spec.thresholds, ec.c, ec.q, rng);
    std::vector<std::vector<std::uint64_t>> coins(
        ec.c, std::vector<std::uint64_t>(n));
    for (auto& party : coins) {
      for (auto& coin : party) coin = rng.next() & 0xffff;
    }
    const LaneCircuits lc = build_mix_reveal_lanes(spec);
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < ec.c; ++p) {
      inputs.push_back(lane_input_bits(lc, eppi::wrap_shares(shares[p]),
                                       width_of(ec.q), coins[p],
                                       spec.coin_bits));
    }
    const auto got = decode_mix_reveal(
        spec, lc, run_lane_circuits(lc, inputs, trial + 7));
    const auto want = plain_mix_reveal(spec, shares, coins);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got[j].mixed, want[j].mixed) << "trial " << trial << " j " << j;
      EXPECT_EQ(got[j].frequency, want[j].frequency)
          << "trial " << trial << " j " << j;
    }
    // Same AND gates per layer as the scalar circuit, hence the same
    // opening frames, triple count and rounds.
    const Circuit scalar = build_mix_reveal_circuit(spec);
    const CircuitStats lanes = lc.stats();
    EXPECT_EQ(lanes.and_gates, scalar.stats().and_gates);
    EXPECT_EQ(lanes.and_depth, scalar.stats().and_depth);
    EXPECT_EQ(lanes.input_wires, scalar.stats().input_wires);
    for (std::uint32_t r = 1; r <= scalar.stats().and_depth; ++r) {
      std::uint64_t k = 0;
      for (const CircuitGroup& g : lc.groups()) {
        k += g.circuit->and_layer(r).size() * g.lanes;
      }
      EXPECT_EQ(k, scalar.and_layer(r).size()) << "layer " << r;
    }
    ++trial;
  }
}

// --- ξ encoder ---------------------------------------------------------------

struct XiCase {
  const char* name;
  std::vector<std::uint64_t> freqs;  // S_j
  std::vector<std::uint64_t> ranks;
  std::uint64_t want_count;
  std::uint64_t want_rank;
};

// Threshold 3 for every identity: S_j >= 3 is common.
const XiCase kXiCases[] = {
    {"no common identity", {0, 1, 2, 2, 1}, {1, 2, 3, 4, 5}, 0, 0},
    {"all on one rank, some common", {3, 0, 5, 1}, {2, 2, 2, 2}, 2, 2},
    {"all on one rank, none common", {0, 2, 1}, {4, 4, 4}, 0, 0},
    {"only the top rank common", {1, 2, 0, 7}, {1, 2, 3, 9}, 1, 9},
    {"ties at the top, one common", {0, 4, 1, 2, 6}, {7, 7, 7, 3, 5}, 2, 7},
    {"top rank not common", {5, 5, 0}, {1, 6, 8}, 2, 6},
    {"rank 0 common only", {4, 0, 1}, {0, 3, 3}, 1, 0},
    {"every identity common", {3, 4, 5, 6, 7, 3}, {5, 1, 4, 2, 6, 3}, 6, 6},
};

TEST(GmwLanesTest, XiEncoderEdgeCases) {
  std::uint64_t trial = 0;
  for (const XiCase& xc : kXiCases) {
    eppi::Rng rng(900 + trial);
    CountBelowSpec spec;
    spec.c = 3;
    spec.q = 16;
    spec.thresholds.assign(xc.freqs.size(), 3);
    spec.xi_ranks = xc.ranks;
    std::vector<std::vector<std::uint64_t>> shares(
        spec.c, std::vector<std::uint64_t>(xc.freqs.size()));
    for (std::size_t j = 0; j < xc.freqs.size(); ++j) {
      const std::uint64_t a = rng.next_below(spec.q);
      const std::uint64_t b = rng.next_below(spec.q);
      shares[0][j] = a;
      shares[1][j] = b;
      shares[2][j] = (xc.freqs[j] + 2 * spec.q - a - b) % spec.q;
    }
    const auto plain = plain_count_below(spec, shares);
    ASSERT_EQ(plain.common_count, xc.want_count) << xc.name;
    ASSERT_EQ(plain.max_xi_rank, xc.want_rank) << xc.name;

    // Scalar circuit, evaluated in the clear.
    std::vector<bool> flat;
    for (const auto& party : shares) {
      for (const std::uint64_t s : party) {
        for (unsigned b = 0; b < 4; ++b) flat.push_back((s >> b) & 1);
      }
    }
    const auto scalar = decode_count_below(
        spec, evaluate_plain(build_count_below_circuit(spec), flat));
    EXPECT_EQ(scalar.common_count, xc.want_count) << xc.name;
    EXPECT_EQ(scalar.max_xi_rank, xc.want_rank) << xc.name;

    // Lane form under GMW.
    const LaneCircuits lc = build_count_below_lanes(spec);
    std::vector<std::vector<bool>> inputs;
    for (const auto& party : shares) {
      inputs.push_back(lane_input_bits(lc, eppi::wrap_shares(party), 4));
    }
    const auto lanes =
        decode_count_below(spec, run_lane_circuits(lc, inputs, trial + 1));
    EXPECT_EQ(lanes.common_count, xc.want_count) << xc.name;
    EXPECT_EQ(lanes.max_xi_rank, xc.want_rank) << xc.name;
    ++trial;
  }
}

// The encoder costs at most two AND gates per rank and one AND level per
// rank bit (the max tree before it cost a comparator and a mux per
// identity, and a comparator's depth per level).
TEST(GmwLanesTest, XiEncoderIsShallow) {
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = 16;
  const std::size_t n = 4096;
  spec.thresholds.assign(n, 3);
  for (std::size_t j = 0; j < n; ++j) spec.xi_ranks.push_back(j + 1);
  CountBelowSpec no_ranks = spec;
  no_ranks.xi_ranks.clear();
  const LaneCircuits with = build_count_below_lanes(spec);
  const LaneCircuits without = build_count_below_lanes(no_ranks);
  const CircuitStats& a = with.tail->stats();
  const CircuitStats& b = without.tail->stats();
  EXPECT_LE(a.and_gates - b.and_gates, 2 * n);
  EXPECT_LE(a.and_depth, std::max<std::uint64_t>(b.and_depth,
                                                 bit_width_for(n)));
}

// --- fault tolerance -----------------------------------------------------------

// A provider crashes mid-SecSumShare; the coordinators' lane programs run
// over the survivors' ring and thresholds and must match the plain
// reference over the survivors.
TEST(GmwLanesTest, FaultTolerantRunWithFewerSurvivors) {
  using namespace std::chrono_literals;
  eppi::Rng rng(2718);
  eppi::dataset::SyntheticConfig sc;
  sc.providers = 6;
  sc.identities = 300;
  sc.zipf_exponent = 0.9;
  sc.max_fraction = 0.6;
  const auto truth = eppi::dataset::make_zipf_network(sc, rng).membership;
  const auto epsilons =
      eppi::dataset::random_epsilons(sc.identities, rng, 0.0, 0.65);
  eppi::core::DistributedOptions options;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.c = 3;
  options.seed = 5;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.stage_timeout = 150ms;
  options.fault_tolerance.mpc_timeout = 10000ms;
  options.fault_tolerance.max_attempts = 3;
  options.fault_tolerance.fault_scenario = "crash 4 after 1 sends";
  const auto result =
      eppi::core::construct_distributed(truth, epsilons, options);
  ASSERT_EQ(result.report.crashed, std::vector<PartyId>{4});
  const auto& survivors = result.report.survivors;
  ASSERT_EQ(survivors.size(), 5u);

  std::vector<std::vector<std::uint8_t>> rows;
  for (const PartyId i : survivors) {
    std::vector<std::uint8_t> row(sc.identities);
    for (std::size_t j = 0; j < sc.identities; ++j) row[j] = truth.get(i, j);
    rows.push_back(std::move(row));
  }
  const auto freqs = eppi::secret::plain_frequency_sums(rows, sc.identities);
  const auto thresholds =
      eppi::core::common_thresholds(options.policy, epsilons, survivors.size());
  std::uint64_t common = 0;
  double xi = 0.0;
  for (std::size_t j = 0; j < sc.identities; ++j) {
    if (freqs[j] >= thresholds[j]) {
      ++common;
      xi = std::max(xi, epsilons[j]);
      EXPECT_TRUE(result.report.mixed[j]) << "identity " << j;
    }
    if (result.report.mixed[j]) {
      EXPECT_EQ(result.report.revealed_frequencies[j], 0u) << j;
    } else {
      EXPECT_EQ(result.report.revealed_frequencies[j], freqs[j]) << j;
    }
  }
  EXPECT_GT(common, 0u);
  EXPECT_EQ(result.report.common_count, common);
  EXPECT_EQ(result.report.xi, xi);
}

}  // namespace
}  // namespace eppi::mpc
