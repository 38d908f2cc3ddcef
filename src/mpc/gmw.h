// GMW-style secure evaluation of Boolean circuits.
//
// This is the generic-MPC engine standing in for FairplayMP (paper §IV-B.2):
// every wire value is XOR-shared among the session parties; XOR/NOT gates
// are evaluated locally, and each AND gate consumes one Beaver triple and one
// masked opening. AND gates at the same AND-depth are batched into a single
// communication round, so total online rounds = AND-depth + 3 (triple
// delivery, input sharing, output opening). Evaluation walks the circuit's
// compiled layer schedule (Circuit::local_layer / and_layer), so its cost
// is proportional to the gate count; each AND layer is masked, opened and
// multiplied 64 gates per word.
//
// The engine runs *inside* a net::Cluster: any subset of cluster parties can
// form an MPC session (the ε-PPI constructor runs SecSumShare over all m
// providers, then a c-party GMW session among the coordinators, all within
// one cluster).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpc/circuit.h"
#include "net/cluster.h"

namespace eppi::mpc {

struct GmwSession {
  // Cluster ids of the session parties; circuit input owners are indices
  // into this vector. parties[0] acts as preprocessing dealer and round
  // marker.
  std::vector<eppi::net::PartyId> parties;
  // Message-sequence namespace; concurrent or consecutive sessions in one
  // cluster must use seq_base values at least kSeqStride apart.
  std::uint64_t seq_base = 0;

  static constexpr std::uint64_t kSeqStride = std::uint64_t{1} << 20;
};

// Runs the session body for one party. `my_inputs` holds this party's input
// bits in the order Circuit::inputs_of(my session index) declares them.
// Returns the opened output bits (all session parties learn all outputs).
//
// Must be called from within Cluster::run, by every session party, with the
// same circuit. Throws ConfigError on misuse, ProtocolError on malformed
// peer messages.
std::vector<bool> run_gmw_party(eppi::net::PartyContext& ctx,
                                const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs);

// Total synchronous rounds the engine will use for `circuit` (for analytic
// cost accounting and tests).
std::uint64_t gmw_round_count(const Circuit& circuit) noexcept;

}  // namespace eppi::mpc
