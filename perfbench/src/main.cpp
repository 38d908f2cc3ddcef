// eppi_perfbench: the repository's benchmark.
//
//   eppi_perfbench --workload lookup|construct|churn --seed N --seconds S
//                  --trace 0|1 [--plant recall|wire|facts|rebuild|cold]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// twice in this process, once plain and once traced, and prints the
// per-layer metrics of the layers the workload reaches plus
// obs.trace_overhead_frac (the traced run's op_p50_ms against the plain
// run's). run.py completes the per-layer set from BENCHMARK.json. The last
// stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it carry the host fingerprint, the build triple and sample
// counts. See perfbench/README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workload.h"

namespace {

using eppi::perfbench::Outcome;
using eppi::perfbench::RunConfig;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "eppi_perfbench: " << why
            << "\nusage: eppi_perfbench --workload lookup|construct|churn "
               "--seed N --seconds S --trace 0|1 "
               "[--plant recall|wire|facts|rebuild|cold]\n";
  std::exit(2);
}

Outcome run(const std::string& workload, const RunConfig& cfg) {
  if (workload == "lookup") return eppi::perfbench::run_lookup(cfg);
  if (workload == "construct") return eppi::perfbench::run_construct(cfg);
  if (workload == "churn") return eppi::perfbench::run_churn(cfg);
  usage("unknown workload '" + workload + "'");
}

double value_of(const Outcome& o, const std::string& name) {
  for (const auto& m : o.end_to_end) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void print_notes(const std::string& tag, const Outcome& o) {
  for (const auto& note : o.notes) std::cout << "# " << tag << note << '\n';
  for (const auto& m : o.end_to_end) {
    std::cout << "# " << tag << m.name << " = " << m.value << ' ' << m.unit
              << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
        have_seconds = cfg.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
        have_trace = true;
      } else if (flag == "--plant") {
        cfg.plant = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!cfg.plant.empty() && cfg.plant != "recall" && cfg.plant != "wire" &&
      cfg.plant != "facts" && cfg.plant != "rebuild" && cfg.plant != "cold") {
    usage("unknown --plant check '" + cfg.plant + "'");
  }

  std::cout << "# host: " << eppi::perfbench::host_fingerprint() << '\n'
            << "# build: " << eppi::perfbench::build_info_json() << '\n'
            << "# run: workload=" << workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << '\n';
  const eppi::perfbench::CpuTicks ticks0 = eppi::perfbench::cpu_ticks();
  try {
    RunConfig plain = cfg;
    plain.trace = false;
    Outcome result = run(workload, plain);
    print_notes("", result);
    if (cfg.trace) {
      Outcome traced = run(workload, cfg);
      print_notes("traced ", traced);
      const double base = value_of(result, "op_p50_ms");
      traced.per_layer.push_back(
          {"obs.trace_overhead_frac",
           base > 0 ? value_of(traced, "op_p50_ms") / base - 1.0 : 0.0,
           "frac"});
      traced.tally.merge(result.tally);
      result = std::move(traced);
      result.end_to_end = result.per_layer;
    }
    std::cout << "# host cpu steal during the run: "
              << 100.0 * eppi::perfbench::steal_share(
                             ticks0, eppi::perfbench::cpu_ticks())
              << "%\n";
    std::cout << eppi::perfbench::result_json(result.tally, result.end_to_end)
              << std::endl;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "eppi_perfbench: " << workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  return 0;
}
