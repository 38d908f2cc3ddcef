// Real-TCP runtime tests: the same protocol bodies that run on the
// in-process cluster must run unchanged over loopback sockets (one runtime
// per thread here; one per process in deployment).
#include "net/socket_transport.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/error.h"
#include "core/construction_party.h"
#include "core/publisher.h"
#include "dataset/synthetic.h"
#include "mpc/circuit_builder.h"
#include "mpc/gmw.h"
#include "mpc/plain_eval.h"
#include "obs/trace.h"
#include "secret/sec_sum_share.h"

namespace eppi::net {
namespace {

// Finds a base such that [base, base+16) are all bindable right now; walks
// forward from a pid-salted start to dodge occupied ranges in shared CI
// environments.
std::uint16_t next_port_base() {
  static std::atomic<std::uint16_t> cursor{static_cast<std::uint16_t>(
      20000 + (::getpid() * 131) % 20000)};
  for (int attempts = 0; attempts < 200; ++attempts) {
    const std::uint16_t base = cursor.fetch_add(16);
    bool all_free = true;
    for (int k = 0; k < 16 && all_free; ++k) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        all_free = false;
        break;
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + k));
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        all_free = false;
      }
      ::close(fd);
    }
    if (all_free) return base;
  }
  throw eppi::ProtocolError("no free port range found for socket tests");
}

std::vector<Endpoint> loopback_mesh(std::size_t m, std::uint16_t base) {
  std::vector<Endpoint> endpoints(m);
  for (std::size_t i = 0; i < m; ++i) {
    endpoints[i].port = static_cast<std::uint16_t>(base + i);
  }
  return endpoints;
}

// Runs `body` as m socket-backed parties (thread per party).
void run_over_sockets(
    std::size_t m, std::uint16_t base,
    const std::function<void(PartyContext&, std::size_t)>& body) {
  const auto endpoints = loopback_mesh(m, base);
  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      try {
        SocketRuntime runtime(static_cast<PartyId>(i), endpoints, 7);
        body(runtime.context(), i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

TEST(SocketTransportTest, PingPongAcrossTcp) {
  std::vector<std::uint8_t> received(3, 0);
  run_over_sockets(3, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    const PartyId next = static_cast<PartyId>((i + 1) % 3);
    const PartyId prev = static_cast<PartyId>((i + 2) % 3);
    ctx.send(next, MessageTag::kUserBase, 0,
             {static_cast<std::uint8_t>(10 + i)});
    received[i] = ctx.recv(prev, MessageTag::kUserBase, 0)[0];
  });
  EXPECT_EQ(received[0], 12);
  EXPECT_EQ(received[1], 10);
  EXPECT_EQ(received[2], 11);
}

TEST(SocketTransportTest, LargePayloadsSurviveFraming) {
  run_over_sockets(2, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    if (i == 0) {
      std::vector<std::uint8_t> big(1 << 20);
      for (std::size_t k = 0; k < big.size(); ++k) {
        big[k] = static_cast<std::uint8_t>(k * 31);
      }
      ctx.send(1, MessageTag::kUserBase, 5, big);
    } else {
      const auto got = ctx.recv(0, MessageTag::kUserBase, 5);
      ASSERT_EQ(got.size(), std::size_t{1} << 20);
      EXPECT_EQ(got[12345], static_cast<std::uint8_t>(12345 * 31));
    }
  });
}

TEST(SocketTransportTest, SecSumShareOverTcp) {
  constexpr std::size_t kM = 4;
  constexpr std::size_t kN = 6;
  std::vector<std::vector<std::uint8_t>> inputs{
      {1, 0, 1, 0, 1, 0}, {1, 1, 0, 0, 0, 0},
      {1, 0, 0, 1, 0, 0}, {1, 0, 0, 0, 0, 1}};
  const eppi::secret::SecSumShareParams params{2, 0, kN};
  const auto ring = eppi::secret::resolve_ring(params, kM);
  std::vector<std::vector<eppi::SecretU64>> views(2);
  run_over_sockets(kM, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    const auto result =
        eppi::secret::run_sec_sum_share_party(ctx, params, inputs[i]);
    if (i < 2) views[i] = *result;
  });
  // Both coordinators' views are opened by the test to check the total.
  const std::vector<std::uint64_t> expected{4, 1, 1, 1, 1, 1};
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(ring.add(views[0][j].reveal(), views[1][j].reveal()),
              expected[j]);
  }
}

TEST(SocketTransportTest, GmwOverTcp) {
  eppi::mpc::CircuitBuilder cb;
  const auto a = cb.input_bits(0, 4);
  const auto b = cb.input_bits(1, 4);
  cb.output_vec(cb.add_expand(a, b));
  const auto circuit = cb.take();
  std::vector<std::vector<bool>> outputs(2);
  run_over_sockets(2, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    eppi::mpc::GmwSession session;
    session.parties = {0, 1};
    outputs[i] = eppi::mpc::run_gmw_party(
        ctx, session, circuit,
        eppi::mpc::u64_to_bits(i == 0 ? 9 : 6, 4));
  });
  EXPECT_EQ(eppi::mpc::bits_to_u64(outputs[0]), 15u);
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(SocketTransportTest, FullConstructionOverTcp) {
  // The entire ε-PPI construction, each provider on its own TCP runtime.
  constexpr std::size_t kM = 5;
  constexpr std::size_t kN = 4;
  const std::vector<std::vector<std::uint8_t>> rows{
      {1, 0, 1, 0}, {1, 1, 0, 0}, {1, 0, 0, 0}, {1, 0, 1, 0}, {1, 0, 0, 1}};
  const std::vector<double> epsilons{0.5, 0.4, 0.6, 0.3};
  eppi::core::DistributedOptions options;
  options.policy = eppi::core::BetaPolicy::basic();
  options.c = 2;

  std::vector<eppi::core::ConstructionPartyResult> results(kM);
  run_over_sockets(kM, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    results[i] =
        eppi::core::run_construction_party(ctx, rows[i], epsilons, options);
  });

  // Assemble and check the published index: full recall, coordinator report
  // coherent.
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (rows[i][j] != 0) {
        EXPECT_EQ(results[i].published_row[j], 1) << i << "," << j;
      }
    }
  }
  ASSERT_TRUE(results[0].coordinator.has_value());
  ASSERT_TRUE(results[1].coordinator.has_value());
  EXPECT_FALSE(results[2].coordinator.has_value());
  EXPECT_EQ(results[0].coordinator->common_count,
            results[1].coordinator->common_count);
  // Identity 0 is at every provider: common under the basic policy.
  EXPECT_TRUE(results[0].coordinator->mixed[0]);
  EXPECT_EQ(results[0].coordinator->revealed_frequencies[0], 0u);
}

// Per-phase cost of one construction, summed over the parties' phase spans.
constexpr std::array<std::string_view, 5> kPhases = {
    "phase:secsum", "phase:count_below", "phase:mix_reveal",
    "phase:broadcast", "phase:publish"};

std::uint64_t span_u64(const obs::SpanEvent& ev, std::string_view key) {
  for (std::uint32_t k = 0; k < ev.n_attrs && k < ev.kMaxAttrs; ++k) {
    const auto& a = ev.attrs[k];
    if (std::string_view(a.key, ::strnlen(a.key, a.kKeyCap)) == key &&
        a.value.type == obs::AttrValue::Type::kU64) {
      return a.value.u64;
    }
  }
  return 0;
}

std::array<CostSnapshot, kPhases.size()> drain_phase_costs() {
  std::array<CostSnapshot, kPhases.size()> costs{};
  for (const auto& ev : obs::default_sink().drain()) {
    for (std::size_t k = 0; k < kPhases.size(); ++k) {
      if (ev.name_view() != kPhases[k]) continue;
      costs[k].bytes += span_u64(ev, "bytes");
      costs[k].messages += span_u64(ev, "messages");
      costs[k].rounds += span_u64(ev, "rounds");
    }
  }
  return costs;
}

// Cross-runtime differential: the same construction on the in-process
// Cluster and on loopback SocketRuntimes opens the same aggregates and
// costs the same per phase. The published rows are not compared bit for
// bit: the runtimes seed party RNGs differently (Rng::fork of the cluster
// seed vs. seed·1000003 + self), so the MixAndReveal coins and the
// publication draws differ; both must still have full recall.
TEST(SocketTransportTest, ConstructionMatchesInProcessCluster) {
  constexpr std::size_t kM = 5;
  eppi::Rng rng(17);
  eppi::dataset::SyntheticConfig sc;
  sc.providers = kM;
  sc.identities = 400;
  sc.zipf_exponent = 0.9;
  sc.max_fraction = 0.6;
  const auto truth = eppi::dataset::make_zipf_network(sc, rng).membership;
  const auto epsilons =
      eppi::dataset::random_epsilons(sc.identities, rng, 0.0, 0.65);
  std::vector<std::vector<std::uint8_t>> rows(kM);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < sc.identities; ++j) {
      rows[i].push_back(truth.get(i, j) ? 1 : 0);
    }
  }
  eppi::core::DistributedOptions options;
  options.policy = eppi::core::BetaPolicy::chernoff(0.9);
  options.c = 3;

  (void)obs::default_sink().drain();
  const std::uint64_t dropped = obs::default_sink().dropped();
  std::vector<eppi::core::ConstructionPartyResult> in_process(kM);
  Cluster cluster(kM, 7);
  cluster.run([&](PartyContext& ctx) {
    in_process[ctx.id()] = eppi::core::run_construction_party(
        ctx, rows[ctx.id()], epsilons, options);
  });
  const auto cluster_costs = drain_phase_costs();
  std::vector<eppi::core::ConstructionPartyResult> over_tcp(kM);
  run_over_sockets(kM, next_port_base(), [&](PartyContext& ctx, std::size_t i) {
    over_tcp[i] =
        eppi::core::run_construction_party(ctx, rows[i], epsilons, options);
  });
  const auto socket_costs = drain_phase_costs();
  ASSERT_EQ(obs::default_sink().dropped(), dropped) << "trace ring overflowed";

  for (std::size_t k = 0; k < kPhases.size(); ++k) {
    EXPECT_EQ(socket_costs[k].bytes, cluster_costs[k].bytes) << kPhases[k];
    EXPECT_EQ(socket_costs[k].messages, cluster_costs[k].messages)
        << kPhases[k];
    EXPECT_EQ(socket_costs[k].rounds, cluster_costs[k].rounds) << kPhases[k];
  }
  EXPECT_GT(cluster_costs[1].bytes, 0u);  // CountBelow ran
  for (std::size_t i = 0; i < kM; ++i) {
    const bool coordinator = i < options.c;
    ASSERT_EQ(in_process[i].coordinator.has_value(), coordinator) << i;
    ASSERT_EQ(over_tcp[i].coordinator.has_value(), coordinator) << i;
    if (coordinator) {
      const auto& a = *in_process[i].coordinator;
      const auto& b = *over_tcp[i].coordinator;
      EXPECT_EQ(b.common_count, a.common_count) << i;
      EXPECT_EQ(b.xi, a.xi) << i;
      EXPECT_EQ(b.lambda, a.lambda) << i;
    }
    for (std::size_t j = 0; j < sc.identities; ++j) {
      if (rows[i][j] == 0) continue;
      EXPECT_EQ(in_process[i].published_row[j], 1) << i << "," << j;
      EXPECT_EQ(over_tcp[i].published_row[j], 1) << i << "," << j;
    }
  }
  EXPECT_GT(in_process[0].coordinator->common_count, 0u);
}

TEST(SocketTransportTest, BadSelfIdRejected) {
  const auto endpoints = loopback_mesh(2, next_port_base());
  EXPECT_THROW(SocketRuntime(5, endpoints), eppi::ConfigError);
}

TEST(SocketTransportTest, UnreachablePeerTimesOut) {
  // Party 1 tries to connect to a party 0 that never starts.
  const auto endpoints = loopback_mesh(2, next_port_base());
  EXPECT_THROW(SocketRuntime(1, endpoints, 1, /*connect_timeout_ms=*/300),
               eppi::ProtocolError);
}

}  // namespace
}  // namespace eppi::net
