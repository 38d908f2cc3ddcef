// GMW engine differential and pinned tests.
//
// Differential half: random layered circuits and the two e-PPI circuits run
// under run_gmw_party and must agree with cleartext evaluation; the dealer
// must reproduce a per-bit reference dealer bit for bit and leave the Rng in
// the same state.
//
// Pinned half: the gate lists of the e-PPI circuits for fixed specs, and
// distributed construction for three seeds (published matrix, betas, common
// count, ξ, λ, CostMeter totals and per-phase costs). MixAndReveal, PureMpc,
// CountBelow without ranks, ξ, λ, the common count and the SecSumShare and
// MixAndReveal phase costs are the scalar engine's values; the rest were
// re-pinned, value by value, when GMW moved to lane programs (see
// CHANGES.md). An engine change that moves any of them changes the
// protocol, not only its speed.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string_view>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/distributed_constructor.h"
#include "dataset/synthetic.h"
#include "mpc/beaver.h"
#include "mpc/circuit_builder.h"
#include "mpc/eppi_circuits.h"
#include "mpc/gmw.h"
#include "mpc/plain_eval.h"
#include "net/cluster.h"
#include "net/message.h"
#include "obs/trace.h"
#include "secret/mod_ring.h"

namespace eppi::mpc {
namespace {

using eppi::net::Cluster;
using eppi::net::CostSnapshot;
using eppi::net::PartyContext;
using eppi::net::PartyId;

// FNV-1a over a stream of 64-bit values (little-endian bytes).
class Fnv {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Runs `circuit` under GMW among inputs.size() parties and returns the
// opened outputs, checking that every party opened the same bits.
std::vector<bool> run_secure(const Circuit& circuit,
                             const std::vector<std::vector<bool>>& inputs,
                             std::uint64_t seed) {
  const std::size_t n = inputs.size();
  Cluster cluster(n, seed);
  std::vector<std::vector<bool>> outputs(n);
  cluster.run([&](PartyContext& ctx) {
    GmwSession session;
    for (std::size_t i = 0; i < n; ++i) {
      session.parties.push_back(static_cast<PartyId>(i));
    }
    outputs[ctx.id()] =
        run_gmw_party(ctx, session, circuit, inputs[ctx.id()]);
  });
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "party " << i << " disagrees";
  }
  EXPECT_EQ(cluster.meter().snapshot().rounds, gmw_round_count(circuit));
  return outputs[0];
}

// --- random layered circuits -------------------------------------------------

struct RandomCircuit {
  Circuit circuit;
  std::vector<std::vector<bool>> inputs;  // per party, declaration order
  std::vector<bool> flat;                 // all inputs, declaration order
};

// Layer widths straddle the 64-gate word on purpose.
constexpr std::uint64_t kWidths[] = {1, 2, 31, 63, 64, 65, 127, 128, 129, 200};

// A circuit of up to `depth` AND layers. Each layer ANDs a wire of the
// previous layer's new AND gates with any earlier wire, so every unfolded
// AND gate sits one layer deeper; XOR and NOT gates and constant operands
// ride along between the layers. Input owners are interleaved at random.
RandomCircuit random_layered(std::size_t parties, std::uint32_t depth,
                             std::uint64_t width_cap, eppi::Rng& rng) {
  RandomCircuit rc;
  CircuitBuilder cb;
  rc.inputs.resize(parties);
  std::vector<Wire> all;
  const std::uint64_t n_inputs = 8 + rng.next_below(24);
  for (std::uint64_t k = 0; k < n_inputs; ++k) {
    const auto owner = static_cast<std::uint32_t>(rng.next_below(parties));
    all.push_back(cb.input_bit(owner));
    const bool v = rng.bernoulli(0.5);
    rc.inputs[owner].push_back(v);
    rc.flat.push_back(v);
  }
  std::vector<Wire> frontier = all;
  const auto pick = [&](const std::vector<Wire>& pool) {
    // Now and then a constant operand, which the builder folds away.
    switch (rng.next_below(16)) {
      case 0:
        return cb.zero();
      case 1:
        return cb.one();
      default:
        return pool[rng.next_below(pool.size())];
    }
  };
  for (std::uint32_t layer = 0; layer < depth; ++layer) {
    const std::uint64_t width =
        std::min(width_cap, kWidths[rng.next_below(std::size(kWidths))]);
    std::vector<Wire> ands;
    for (std::uint64_t g = 0; g < width; ++g) {
      const std::uint64_t before = cb.stats().and_gates;
      const Wire w = cb.And(frontier[rng.next_below(frontier.size())],
                            pick(all));
      if (cb.stats().and_gates > before) ands.push_back(w);
    }
    if (ands.empty()) continue;  // every gate folded: no new layer
    all.insert(all.end(), ands.begin(), ands.end());
    const std::uint64_t locals = rng.next_below(width + 1);
    for (std::uint64_t g = 0; g < locals; ++g) {
      const Wire a = pick(ands);
      all.push_back(rng.bernoulli(0.5) ? cb.Xor(a, pick(all)) : cb.Not(a));
    }
    frontier = std::move(ands);
  }
  for (int o = 0; o < 48; ++o) cb.output(pick(all));
  cb.output(frontier.back());
  rc.circuit = cb.take();
  return rc;
}

struct LayeredCase {
  std::size_t parties;
  std::uint32_t depth;
  std::uint64_t width_cap;
};

TEST(GmwEngineTest, RandomLayeredCircuitsMatchPlainEvaluation) {
  const LayeredCase cases[] = {
      {2, 300, 70}, {3, 1, 200},  {3, 40, 200}, {4, 120, 129},
      {5, 12, 200}, {2, 64, 65},  {3, 2, 1},    {5, 80, 64},
  };
  std::uint64_t trial = 0;
  for (const LayeredCase& c : cases) {
    eppi::Rng rng(1000 + trial);
    const RandomCircuit rc = random_layered(c.parties, c.depth, c.width_cap,
                                            rng);
    EXPECT_LE(rc.circuit.stats().and_depth, c.depth);
    EXPECT_GE(rc.circuit.stats().and_depth, c.depth * 3 / 4)
        << "constant folding ate too many layers";
    const auto expected = evaluate_plain(rc.circuit, rc.flat);
    const auto got = run_secure(rc.circuit, rc.inputs, trial + 1);
    EXPECT_EQ(got, expected) << "parties=" << c.parties
                             << " depth=" << c.depth << " trial=" << trial;
    ++trial;
  }
}

// --- e-PPI circuits ----------------------------------------------------------

struct EppiCase {
  std::size_t c;
  std::size_t n;
  std::uint64_t q;
};

constexpr EppiCase kEppiCases[] = {{3, 2000, 16}, {2, 700, 13}, {4, 300, 37}};

std::vector<std::vector<std::uint64_t>> random_shares(const EppiCase& ec,
                                                      eppi::Rng& rng) {
  std::vector<std::vector<std::uint64_t>> shares(
      ec.c, std::vector<std::uint64_t>(ec.n));
  for (auto& party : shares) {
    for (auto& s : party) s = rng.next_below(ec.q);
  }
  return shares;
}

std::vector<bool> share_bits(const std::vector<std::uint64_t>& shares,
                             std::uint64_t q) {
  const auto wrapped = eppi::wrap_shares(shares);
  return share_input_bits(wrapped, eppi::secret::ModRing(q).bit_width());
}

TEST(GmwEngineTest, CountBelowMatchesPlainReference) {
  std::uint64_t trial = 0;
  for (const EppiCase& ec : kEppiCases) {
    eppi::Rng rng(77 + trial);
    CountBelowSpec spec;
    spec.c = ec.c;
    spec.q = ec.q;
    for (std::size_t j = 0; j < ec.n; ++j) {
      spec.thresholds.push_back(rng.next_below(ec.q));
      spec.xi_ranks.push_back(rng.next_below(3 * ec.n));
    }
    const auto shares = random_shares(ec, rng);
    std::vector<std::vector<bool>> inputs;
    for (const auto& party : shares) inputs.push_back(share_bits(party, ec.q));
    const auto got = decode_count_below(
        spec, run_secure(build_count_below_circuit(spec), inputs, trial + 5));
    const auto want = plain_count_below(spec, shares);
    EXPECT_EQ(got.common_count, want.common_count) << "trial " << trial;
    EXPECT_EQ(got.max_xi_rank, want.max_xi_rank) << "trial " << trial;
    ++trial;
  }
}

TEST(GmwEngineTest, MixRevealMatchesPlainReference) {
  std::uint64_t trial = 0;
  for (const EppiCase& ec : kEppiCases) {
    eppi::Rng rng(91 + trial);
    MixRevealSpec spec;
    spec.c = ec.c;
    spec.q = ec.q;
    spec.lambda = 0.1 + 0.2 * static_cast<double>(trial);
    spec.coin_bits = 16;
    for (std::size_t j = 0; j < ec.n; ++j) {
      spec.thresholds.push_back(rng.next_below(ec.q));
    }
    const auto shares = random_shares(ec, rng);
    std::vector<std::vector<std::uint64_t>> coins(
        ec.c, std::vector<std::uint64_t>(ec.n));
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < ec.c; ++p) {
      std::vector<bool> bits = share_bits(shares[p], ec.q);
      for (std::size_t j = 0; j < ec.n; ++j) {
        coins[p][j] = rng.next() & 0xffff;
        for (unsigned b = 0; b < spec.coin_bits; ++b) {
          bits.push_back(((coins[p][j] >> b) & 1) != 0);
        }
      }
      inputs.push_back(std::move(bits));
    }
    const auto got = decode_mix_reveal(
        spec, run_secure(build_mix_reveal_circuit(spec), inputs, trial + 9));
    const auto want = plain_mix_reveal(spec, shares, coins);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < ec.n; ++j) {
      EXPECT_EQ(got[j].mixed, want[j].mixed) << "trial " << trial << " j " << j;
      EXPECT_EQ(got[j].frequency, want[j].frequency)
          << "trial " << trial << " j " << j;
    }
    ++trial;
  }
}

// --- dealer ------------------------------------------------------------------

// The dealer the word-wide one must reproduce, assembled one bit at a time:
// per block of 64 triples one Rng::next() per word — a, b, then the (a, b,
// c) share words of parties 0..n-2 — triple base + k taking bit k of each
// word; the last party's shares close the XOR sums.
std::vector<std::array<std::vector<std::uint8_t>, 3>> reference_deal(
    std::size_t n_parties, std::uint64_t count, eppi::Rng& rng) {
  std::vector<std::array<std::vector<std::uint8_t>, 3>> out(n_parties);
  for (auto& party : out) {
    for (auto& buf : party) buf.assign(packed_size(count), 0);
  }
  for (std::uint64_t base = 0; base < count; base += 64) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    std::vector<std::array<std::uint64_t, 3>> words(n_parties - 1);
    for (auto& party : words) {
      for (auto& word : party) word = rng.next();
    }
    for (std::uint64_t k = 0; k < 64 && base + k < count; ++k) {
      const bool ak = (a >> k) & 1;
      const bool bk = (b >> k) & 1;
      bool acc[3] = {ak, bk, ak && bk};
      for (std::size_t p = 0; p + 1 < n_parties; ++p) {
        for (auto part = 0; part < 3; ++part) {
          const bool s = (words[p][part] >> k) & 1;
          set_packed_bit(out[p][part], base + k, s);
          acc[part] ^= s;
        }
      }
      for (auto part = 0; part < 3; ++part) {
        set_packed_bit(out[n_parties - 1][part], base + k, acc[part]);
      }
    }
  }
  return out;
}

TEST(GmwEngineTest, DealerMatchesPerBitReference) {
  for (const std::size_t n_parties : {2u, 3u, 5u}) {
    for (const std::uint64_t count :
         {0ull, 1ull, 7ull, 63ull, 64ull, 65ull, 1000ull, 4099ull}) {
      const std::uint64_t seed = n_parties * 1000003 + count;
      eppi::Rng dealer_rng(seed);
      eppi::Rng reference_rng(seed);
      const auto got = deal_triples(n_parties, count, dealer_rng);
      const auto want = reference_deal(n_parties, count, reference_rng);
      ASSERT_EQ(got.size(), n_parties);
      for (std::size_t p = 0; p < n_parties; ++p) {
        EXPECT_EQ(got[p].count, count);
        // The test plays the dealer, so opening the buffers is legitimate.
        EXPECT_EQ(got[p].a.reveal(), want[p][0]) << n_parties << "/" << count;
        EXPECT_EQ(got[p].b.reveal(), want[p][1]) << n_parties << "/" << count;
        EXPECT_EQ(got[p].c.reveal(), want[p][2]) << n_parties << "/" << count;
      }
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(dealer_rng.next(), reference_rng.next())
            << "Rng state diverged: " << n_parties << "/" << count;
      }
    }
  }
}

// A dealer frame whose buffers are shorter than the triple count says is
// refused before any triple is read.
TEST(GmwEngineTest, ShortTripleFrameRejected) {
  CircuitBuilder cb;
  cb.output(cb.And(cb.input_bit(0), cb.input_bit(1)));
  const Circuit circuit = cb.take();
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](PartyContext& ctx) {
                 if (ctx.id() == 0) {
                   eppi::BinaryWriter w;
                   w.write_varint(1);  // one triple, but empty buffers
                   for (int k = 0; k < 3; ++k) w.write_bytes({});
                   ctx.send(1, eppi::net::MessageTag::kBeaverTriple, 0,
                            w.take());
                   return;
                 }
                 GmwSession session;
                 session.parties = {0, 1};
                 (void)run_gmw_party(ctx, session, circuit, {true});
               }),
               eppi::ProtocolError);
}

// --- pinned fingerprints -----------------------------------------------------

std::uint64_t gate_list_hash(const Circuit& circuit) {
  Fnv h;
  for (const Gate& g : circuit.gates()) {
    h.add(static_cast<std::uint64_t>(g.op));
    h.add(g.a);
    h.add(g.b);
  }
  for (const Wire w : circuit.inputs()) h.add(w);
  for (const Wire w : circuit.outputs()) h.add(w);
  return h.value();
}

constexpr std::size_t kPinnedIdentities = 400;

CountBelowSpec pinned_count_below(std::uint64_t q) {
  eppi::Rng rng(2024 + q);
  CountBelowSpec spec;
  spec.c = 3;
  spec.q = q;
  for (std::size_t j = 0; j < kPinnedIdentities; ++j) {
    spec.thresholds.push_back(rng.next_below(q));
    spec.xi_ranks.push_back(rng.next_below(64));
  }
  return spec;
}

MixRevealSpec pinned_mix_reveal(std::uint64_t q) {
  eppi::Rng rng(4048 + q);
  MixRevealSpec spec;
  spec.c = 3;
  spec.q = q;
  spec.lambda = 0.27;
  spec.coin_bits = 16;
  for (std::size_t j = 0; j < kPinnedIdentities; ++j) {
    spec.thresholds.push_back(rng.next_below(q));
  }
  return spec;
}

TEST(GmwEnginePinnedTest, CircuitGateListsUnchanged) {
  // q = 16 is the workload's ring (power of two: add_mod truncates); q = 13
  // takes add_mod's conditional-subtract path. CountBelow with ranks was
  // re-pinned when the ξ max tree became a priority encoder; without ranks
  // (every identity's block, then the popcount) it is unchanged.
  EXPECT_EQ(gate_list_hash(build_count_below_circuit(pinned_count_below(16))),
            0xc8b937ec3b98885fULL);
  EXPECT_EQ(gate_list_hash(build_count_below_circuit(pinned_count_below(13))),
            0xbde8dcf88110a3edULL);
  for (const auto& [q, hash] : {std::pair{16u, 0x9a401068db0368c3ULL},
                               std::pair{13u, 0x9f67d835228fac37ULL}}) {
    CountBelowSpec spec = pinned_count_below(q);
    spec.xi_ranks.clear();
    EXPECT_EQ(gate_list_hash(build_count_below_circuit(spec)), hash) << q;
  }
  EXPECT_EQ(gate_list_hash(build_mix_reveal_circuit(pinned_mix_reveal(16))),
            0x28b6b381f9b24df0ULL);
  EXPECT_EQ(gate_list_hash(build_mix_reveal_circuit(pinned_mix_reveal(13))),
            0xc84079408b596f38ULL);
  PureMpcSpec pure;
  pure.m = 7;
  pure.lambda = 0.3;
  eppi::Rng rng(99);
  for (std::size_t j = 0; j < 120; ++j) {
    pure.thresholds.push_back(rng.next_below(pure.m + 1));
  }
  EXPECT_EQ(gate_list_hash(build_pure_mpc_circuit(pure)),
            0x91ba1c1b16709565ULL);
}

std::uint64_t span_u64(const eppi::obs::SpanEvent& ev, std::string_view key) {
  for (std::uint32_t k = 0; k < ev.n_attrs && k < ev.kMaxAttrs; ++k) {
    const auto& a = ev.attrs[k];
    if (std::string_view(a.key, ::strnlen(a.key, a.kKeyCap)) == key &&
        a.value.type == eppi::obs::AttrValue::Type::kU64) {
      return a.value.u64;
    }
  }
  return 0;
}

struct PhaseCost {
  std::uint64_t bytes;
  std::uint64_t messages;
  std::uint64_t rounds;
};

struct ConstructPin {
  std::uint64_t seed;
  // Re-pinned when the engine moved to lane programs (CountBelow's circuit,
  // the dealer's draws and with them party 0's coin stream changed).
  std::uint64_t matrix_hash;
  std::uint64_t betas_hash;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t rounds;
  std::uint64_t phase_hash;  // (name, bytes, messages, rounds) per phase span
  // Unchanged since the scalar engine: what CountBelow opens, and the cost
  // of the stages whose circuits and frame sizes stayed the same.
  std::uint64_t common_count;
  double xi;
  double lambda;
  PhaseCost secsum;
  PhaseCost mix_reveal;
};

TEST(GmwEnginePinnedTest, DistributedConstructionUnchanged) {
  const ConstructPin pins[] = {
      {1, 0x01241255513d521dULL, 0x7c4504517a56cb8dULL, 243, 548960, 40,
       0x01d6d326dfee0960ULL, 376, 0x1.4c7372e223c31p-1,
       0x1.0fafd14d7f83fp-2, {72624, 24, 2}, {290550, 104, 18}},
      {2, 0x4758444d064c319dULL, 0x202bb6372694445eULL, 243, 548834, 40,
       0x95ad755d624ea04eULL, 357, 0x1.4cc60f9c610e2p-1,
       0x1.00d04e282c4d3p-2, {72624, 24, 2}, {290490, 104, 18}},
      {3, 0x1a55af2e13cade5fULL, 0x3de86c9235ad0881ULL, 255, 562904, 42,
       0xe513236cd1597c0aULL, 378, 0x1.4c8da07d2aa5ap-1,
       0x1.1194852ac44a9p-2, {72624, 24, 2}, {304416, 116, 20}},
  };
  for (const ConstructPin& pin : pins) {
    eppi::Rng rng(pin.seed);
    eppi::dataset::SyntheticConfig sc;
    sc.providers = 8;
    sc.identities = 3000;
    sc.zipf_exponent = 0.9;
    sc.max_fraction = 0.5;
    const auto truth = eppi::dataset::make_zipf_network(sc, rng).membership;
    const auto epsilons =
        eppi::dataset::random_epsilons(sc.identities, rng, 0.0, 0.65);
    eppi::core::DistributedOptions options;
    options.policy = eppi::core::BetaPolicy::chernoff(0.9);
    options.c = 3;
    options.seed = pin.seed;

    auto& sink = eppi::obs::default_sink();
    (void)sink.drain();
    const std::uint64_t dropped_before = sink.dropped();
    const auto result =
        eppi::core::construct_distributed(truth, epsilons, options);
    const auto events = sink.drain();
    ASSERT_EQ(sink.dropped(), dropped_before) << "trace ring overflowed";

    const eppi::BitMatrix& published = result.index.matrix();
    Fnv matrix;
    matrix.add(published.rows());
    matrix.add(published.cols());
    for (std::size_t i = 0; i < published.rows(); ++i) {
      for (std::size_t w = 0; w < published.words_per_row(); ++w) {
        matrix.add(published.row_words(i)[w]);
      }
    }
    Fnv betas;
    for (const double b : result.report.betas) {
      betas.add(std::bit_cast<std::uint64_t>(b));
    }
    // Phase spans in name order, summed over parties.
    constexpr std::string_view kPhases[] = {
        "phase:secsum", "phase:count_below", "phase:mix_reveal",
        "phase:broadcast", "phase:publish"};
    Fnv phases;
    for (const std::string_view name : kPhases) {
      CostSnapshot sum;
      std::uint64_t spans = 0;
      for (const auto& ev : events) {
        if (ev.name_view() != name) continue;
        ++spans;
        sum.bytes += span_u64(ev, "bytes");
        sum.messages += span_u64(ev, "messages");
        sum.rounds += span_u64(ev, "rounds");
      }
      EXPECT_GT(spans, 0u) << name;
      phases.add(spans);
      phases.add(sum.bytes);
      phases.add(sum.messages);
      phases.add(sum.rounds);
      const PhaseCost* same = name == "phase:secsum"       ? &pin.secsum
                              : name == "phase:mix_reveal" ? &pin.mix_reveal
                                                           : nullptr;
      if (same != nullptr) {
        EXPECT_EQ(sum.bytes, same->bytes) << name << " seed " << pin.seed;
        EXPECT_EQ(sum.messages, same->messages) << name << " seed " << pin.seed;
        EXPECT_EQ(sum.rounds, same->rounds) << name << " seed " << pin.seed;
      }
    }
    const CostSnapshot& cost = result.report.total_cost;
    EXPECT_EQ(matrix.value(), pin.matrix_hash) << "seed " << pin.seed;
    EXPECT_EQ(betas.value(), pin.betas_hash) << "seed " << pin.seed;
    EXPECT_EQ(result.report.common_count, pin.common_count)
        << "seed " << pin.seed;
    EXPECT_EQ(result.report.xi, pin.xi) << "seed " << pin.seed;
    EXPECT_EQ(result.report.lambda, pin.lambda) << "seed " << pin.seed;
    EXPECT_EQ(cost.messages, pin.messages) << "seed " << pin.seed;
    EXPECT_EQ(cost.bytes, pin.bytes) << "seed " << pin.seed;
    EXPECT_EQ(cost.rounds, pin.rounds) << "seed " << pin.seed;
    EXPECT_EQ(phases.value(), pin.phase_hash) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace eppi::mpc
