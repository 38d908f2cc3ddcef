// GMW-style secure evaluation of Boolean circuits.
//
// This is the generic-MPC engine standing in for FairplayMP (paper §IV-B.2):
// every wire value is XOR-shared among the session parties; XOR/NOT gates
// are evaluated locally, and each AND gate consumes one Beaver triple and one
// masked opening. AND gates at the same AND-depth are batched into a single
// communication round, so total online rounds = AND-depth + 3 (triple
// delivery, input sharing, output opening).
//
// The engine evaluates a lane program: groups of (template circuit, lane
// count) in lockstep, each wire share a run of 64-bit lane words, so one
// template runs many independent instances at once (one per bit lane). AND
// layer r of every group is opened in one frame; triples are consumed per
// (gate, lane). An optional tail circuit then takes the groups' outputs as
// its inputs, still secret-shared, and only the tail's outputs are opened.
// A scalar circuit is one group with one lane. Evaluation walks each
// template's compiled layer schedule (Circuit::local_layer / and_layer).
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

// Runs the session body for one party on a lane program. `my_inputs` holds
// this party's input bits group by group; within a group, its input wires
// in the template's declaration order (Circuit::inputs_of), and per wire
// the bit of every lane in lane order. Without a tail the opened outputs
// come back in the same (group, output wire, lane) order. With a tail, those
// outputs stay shared and become the tail's input wires in that order
// (whatever owner the tail declares for them), and the tail's opened
// outputs come back. All session parties learn all opened outputs.
//
// Must be called from within Cluster::run, by every session party, with the
// same program. Throws ConfigError on misuse, ProtocolError on malformed
// peer messages.
std::vector<bool> run_gmw_party(eppi::net::PartyContext& ctx,
                                const GmwSession& session,
                                std::span<const CircuitGroup> groups,
                                const std::vector<bool>& my_inputs,
                                const Circuit* tail = nullptr);

// A scalar circuit: one group with one lane.
std::vector<bool> run_gmw_party(eppi::net::PartyContext& ctx,
                                const GmwSession& session,
                                const Circuit& circuit,
                                const std::vector<bool>& my_inputs);

// Total synchronous rounds the engine will use for a program (for analytic
// cost accounting and tests).
std::uint64_t gmw_round_count(std::span<const CircuitGroup> groups,
                              const Circuit* tail = nullptr);
std::uint64_t gmw_round_count(const Circuit& circuit) noexcept;

}  // namespace eppi::mpc
