#!/usr/bin/env python3
"""Build and run the e-PPI benchmark.

    python3 perfbench/run.py --workload lookup|construct|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries from src/ plus eppi_perfbench) into
.bench_build; later runs only check that the build is current. Build output
goes to stderr, so the last line of stdout is the benchmark's result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --self-test

builds and runs the helper tests and run.py's own tests
(tests/run_test.py), then shows that each correctness check
behind ok_frac fires on a planted wrong answer. The runs use the
benchmark's own sizes with a short --seconds (a few minutes in all).

The metrics of the result line are those BENCHMARK.json names, in its
order: every end-to-end metric with --trace 0, every per-layer metric with
--trace 1. A per-layer metric of a layer the workload does not reach (mpc on
lookup, storage on construct, ...) is reported as 0 and listed on stderr.

Exits non-zero, printing no result, when the sources, the build or
BENCHMARK.json are missing, a run fails, or the run's metrics do not match
BENCHMARK.json. See perfbench/README.md for the metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(*targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_bench(args, capture=False):
    """Runs eppi_perfbench from the repository root; returns (code, stdout)."""
    cmd = [os.path.join(BUILD, "eppi_perfbench"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("eppi_perfbench timed out after %d s" % RUN_TIMEOUT_S, 3)
    return proc.returncode, proc.stdout.decode() if capture else ""


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def manifest_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json asks for, in its order."""
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
        key = "per_layer" if trace else "end_to_end"
        return [(m["name"], m["unit"]) for m in manifest[key]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metrics of BENCHMARK.json: %s" % e)


def complete(result, trace):
    """The result with its metrics in BENCHMARK.json's order.

    Every end-to-end metric must have been measured. A per-layer metric the
    workload did not report is 0: it spent no time and no bytes in that
    layer. A metric BENCHMARK.json does not name, or a unit that differs
    from its unit there, is an error.
    """
    measured = result["metrics"]
    wanted = manifest_metrics(trace)
    extra = sorted(set(measured) - {name for name, _ in wanted})
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))
    metrics, absent = {}, []
    for name, unit in wanted:
        if name not in measured:
            if not trace:
                fail("end-to-end metric %s was not measured" % name)
            absent.append(name)
            metrics[name] = {"value": 0, "unit": unit}
        elif measured[name]["unit"] != unit:
            fail("%s is in %s, BENCHMARK.json says %s" % (
                name, measured[name]["unit"], unit))
        else:
            metrics[name] = measured[name]
    if absent:
        print("# not reached on this workload (reported as 0): " +
              " ".join(absent), file=sys.stderr)
    return dict(result, metrics=metrics)


def self_test():
    build("eppi_perfbench", "perfbench_helpers_test")
    ok = subprocess.run([os.path.join(BUILD, "perfbench_helpers_test")],
                        cwd=ROOT).returncode == 0
    ok = subprocess.run([sys.executable, "-B",
                         os.path.join(HERE, "tests", "run_test.py")],
                        cwd=ROOT).returncode == 0 and ok
    short = ["--seed", "7", "--seconds", "2", "--trace", "0"]
    cases = [("lookup", None), ("construct", None), ("churn", None),
             ("lookup", "recall"), ("construct", "recall"),
             ("construct", "wire"), ("churn", "recall"), ("churn", "facts"),
             ("churn", "rebuild"), ("churn", "cold")]
    for workload, plant in cases:
        args = ["--workload", workload, *short]
        if plant:
            args += ["--plant", plant]
        code, out = run_bench(args, capture=True)
        result = last_json(out) if code == 0 else None
        expect = plant is None
        fired = result is not None and result["correct"] == expect and (
            result["failed"] == 0 if expect else result["failed"] >= 1)
        print("%-9s plant=%-7s -> correct=%s failed=%s ok_frac=%s  %s" % (
            workload, plant or "-",
            result and result["correct"], result and result["failed"],
            result and result["metrics"]["ok_frac"]["value"],
            "as expected" if fired else "UNEXPECTED"))
        ok = ok and fired
    sys.exit(0 if ok else 1)


def main(argv):
    if argv == ["--self-test"]:
        self_test()
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    manifest_metrics(trace)
    build("eppi_perfbench")
    code, out = run_bench(argv, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("eppi_perfbench exited with code %d" % code, code or 1)
    try:
        result = json.loads(lines[-1])
        completed = complete(result, trace)
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(out)
        fail("eppi_perfbench printed no well-formed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(completed))
    sys.exit(0)


if __name__ == "__main__":
    main(sys.argv[1:])
