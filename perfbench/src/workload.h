// The benchmark's three workloads. Each builds its inputs from the seed,
// drives the library through its public API in this one process, checks
// every answer, and returns its end-to-end metrics (and, when traced, the
// per-layer metrics of the layers it reaches). Every workload reports the
// same end-to-end metrics: set-up, ok_frac, peak RSS and op_p50_ms, the
// median time of its own operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"

namespace eppi::perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Per-layer pass: drain the trace sink, time single layers.
  bool trace = false;
  // Name of a correctness check whose input gets one planted wrong answer
  // ("" = none): recall, wire, facts, rebuild or cold. Shows the check
  // fires.
  std::string plant;
};

struct Outcome {
  Tally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Human-readable lines printed before the result (sample counts etc.).
  std::vector<std::string> notes;
};

// Set-ups are repeated `n` times and their median reported; the traced run
// sets up once, to stay well inside its time limit (its per-layer figures
// have no bound).
inline int repeats(const RunConfig& cfg, int n) { return cfg.trace ? 1 : n; }

Outcome run_lookup(const RunConfig& cfg);
Outcome run_construct(const RunConfig& cfg);
Outcome run_churn(const RunConfig& cfg);

}  // namespace eppi::perfbench
