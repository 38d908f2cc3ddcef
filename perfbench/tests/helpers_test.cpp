// Tests of the benchmark's own helpers: percentiles on known inputs (raw
// samples and the fine histogram), read windows, the ok_frac tally, the
// recall check, and the result line.
//
//   cmake --build .bench_build --target perfbench_helpers_test
//   .bench_build/perfbench_helpers_test
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "helpers.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const eppi::ConfigError&) {
    return true;
  }
  return false;
}

using eppi::perfbench::Fact;
using eppi::perfbench::percentile;

void test_percentiles() {
  const std::vector<double> one = {7.0};
  check(near(percentile(one, 0.0), 7.0) && near(percentile(one, 0.5), 7.0) &&
            near(percentile(one, 0.99), 7.0),
        "one sample is every percentile");
  const std::vector<double> two = {1.0, 3.0};
  check(near(percentile(two, 0.5), 2.0), "p50 of two interpolates");
  check(near(percentile(two, 1.0), 3.0), "p100 is the max");
  const std::vector<double> ties = {2.0, 2.0, 2.0, 2.0, 9.0};
  check(near(percentile(ties, 0.5), 2.0), "p50 inside a run of ties");
  check(near(percentile(ties, 0.75), 2.0), "p75 at the last tie");
  check(near(percentile(ties, 0.9), 2.0 + 0.6 * 7.0), "p90 past the ties");
  // Type-7 quantiles on 1..100: p99 = 99.01, p50 = 50.5.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 0.5), 50.5), "p50 of 1..100");
  check(near(percentile(hundred, 0.99), 99.01), "p99 of 1..100");
  // No bucketing: a sample just over a power of two stays where it is.
  const std::vector<double> fine = {4.1, 4.2, 4.3};
  check(near(percentile(fine, 0.5), 4.2), "p50 is not a bucket edge");
  check(near(eppi::perfbench::median({3.0, 1.0, 2.0}), 2.0),
        "median sorts its input");
  check(throws([] { (void)percentile(std::vector<double>{}, 0.5); }),
        "no samples throws");
  check(throws([&] { (void)percentile(one, 1.5); }), "q > 1 throws");
}

void test_quiet_median() {
  using eppi::perfbench::quiet_median;
  // Six epochs; the two least stolen (steal 0 and 0.01) give 1.0 and 1.1.
  const std::vector<double> t = {2.0, 1.0, 1.6, 1.1, 1.9, 1.4};
  const std::vector<double> steal = {0.20, 0.0, 0.12, 0.01, 0.18, 0.05};
  check(near(quiet_median(t, steal), 1.05), "median of the quietest third");
  check(near(quiet_median(std::vector<double>{3.0},
                          std::vector<double>{0.1}),
             3.0),
        "one sample is its own quiet median");
  check(near(quiet_median(std::vector<double>{2.0, 9.0, 4.0, 8.0, 7.0},
                          std::vector<double>{0.0, 0.3, 0.01, 0.2, 0.1}),
             3.0),
        "five samples keep the two quietest");
  check(near(quiet_median(std::vector<double>{1.0, 2.0, 3.0},
                          std::vector<double>{0.0, 0.0, 0.0}),
             1.5),
        "ties in steal keep run order");
  check(throws([] {
          (void)quiet_median(std::vector<double>{1.0}, std::vector<double>{});
        }),
        "mismatched samples throw");
}

void test_fine_histogram() {
  using eppi::perfbench::FineHistogram;
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 0.008 * b;  // within one bucket
  };
  FineHistogram h;
  check(throws([&] { (void)h.percentile(0.5); }), "empty histogram throws");
  h.record(7.0);
  check(h.count() == 1 && close(h.percentile(0.0), 7.0) &&
            close(h.percentile(0.99), 7.0),
        "one sample is every percentile");
  check(throws([&] { (void)h.percentile(1.5); }), "q outside [0,1] throws");
  // Type-7 ranks on 1..100, each value within its bucket's width.
  FineHistogram hundred;
  for (int i = 1; i <= 100; ++i) hundred.record(i);
  check(close(hundred.percentile(0.5), 50.5), "p50 of 1..100");
  check(close(hundred.percentile(0.99), 99.01), "p99 of 1..100");
  // Ties stay on their value; the tail interpolates past them.
  FineHistogram ties;
  for (const double v : {2.0, 2.0, 2.0, 2.0, 9.0}) ties.record(v);
  check(close(ties.percentile(0.75), 2.0), "p75 at the last tie");
  check(close(ties.percentile(0.9), 2.0 + 0.6 * 7.0), "p90 past the ties");
  // Fine buckets: 20 and 21 µs stay apart, and a p50 just over a power of
  // two is not snapped to it.
  FineHistogram pair;
  pair.record(20.0);
  pair.record(21.0);
  check(close(pair.percentile(0.0), 20.0) && close(pair.percentile(1.0), 21.0),
        "20 and 21 µs in different buckets");
  FineHistogram edge;
  for (const double v : {16.5, 16.6, 16.7}) edge.record(v);
  check(close(edge.percentile(0.5), 16.6), "p50 is not a bucket edge");
  // Merging adds counts; out-of-range values land in the end buckets.
  FineHistogram merged;
  merged.merge(hundred);
  merged.merge(pair);
  check(merged.count() == 102, "merge adds counts");
  FineHistogram extremes;
  extremes.record(0.0);
  extremes.record(1e12);
  check(extremes.count() == 2 && extremes.percentile(0.0) < 0.01 &&
            extremes.percentile(1.0) > 1e8,
        "out-of-range values are kept at the ends");
}

void test_windowed_reads() {
  using eppi::perfbench::FineHistogram;
  using eppi::perfbench::fixed_windows;
  using eppi::perfbench::Window;
  using eppi::perfbench::windowed_reads;
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 0.008 * b;
  };
  const auto windows = fixed_windows(2.6, 1.0);
  check(windows.size() == 2 && near(windows[1].begin_s, 1.0) &&
            near(windows[1].end_s, 2.0),
        "two full windows, the partial one dropped");
  const auto short_run = fixed_windows(0.4, 1.0);
  check(short_run.size() == 1 && near(short_run[0].end_s, 0.4),
        "a run shorter than a window is one window");
  // Three 1-s windows: two steady ones (10 and 12 µs) and one with a
  // burst. A fourth histogram, for the dropped partial window, is ignored.
  const auto three = fixed_windows(3.6, 1.0);
  std::vector<FineHistogram> latency(4);
  for (int i = 0; i < 100; ++i) latency[0].record(10.0);
  for (int i = 0; i < 50; ++i) latency[1].record(i < 45 ? 20.0 : 500.0);
  for (int i = 0; i < 80; ++i) latency[2].record(12.0);
  latency[3].record(1e6);
  const auto w = windowed_reads(latency, three, 16);
  check(w.windows == 3 && w.samples == 230, "three windows, 230 samples");
  // Window p50s 10, 20, 12; p99s 10, 500 (the burst), 12; rates 100, 50
  // and 80 per second: the median window of each.
  check(close(w.p50_us, 12.0), "p50: median window");
  check(close(w.p99_us, 12.0), "p99: the burst window does not move it");
  check(near(w.owners_per_s, 80.0 * 16), "owners/s: median window rate");
  // Uneven windows (epochs): rates use each window's own length, and a
  // window without samples is skipped.
  std::vector<FineHistogram> epochs(4);
  for (int i = 0; i < 50; ++i) epochs[0].record(10.0);
  for (int i = 0; i < 10; ++i) epochs[1].record(10.0);
  for (int i = 0; i < 90; ++i) epochs[3].record(30.0);
  const std::vector<Window> spans = {{0.0, 0.5}, {0.5, 0.6}, {0.6, 0.7},
                                     {0.7, 2.1}};
  const auto e = windowed_reads(epochs, spans, 1);
  check(e.windows == 3 && e.samples == 150, "empty window skipped");
  check(near(e.owners_per_s, 100.0), "median of 100, 100 and 64 per s");
  check(close(e.p50_us, 10.0), "median window p50");
  check(throws([&] {
          (void)windowed_reads(std::vector<FineHistogram>(1), spans, 1);
        }),
        "no sample in any window throws");
}

void test_tally() {
  eppi::perfbench::Tally t;
  check(t.ok_frac() == 0.0, "an empty tally proves nothing");
  t.record(true);
  t.record(true);
  t.record(false);
  t.record(true);
  check(t.attempted == 4 && t.failed == 1 && near(t.ok_frac(), 0.75),
        "3 of 4 right is 0.75");
  eppi::perfbench::Tally thrown;
  thrown.record_failed(16);  // a batch that threw fails all its owners
  t.merge(thrown);
  check(t.attempted == 20 && t.failed == 17 && near(t.ok_frac(), 0.15),
        "merge adds both counts");
}

void test_recall() {
  const std::vector<std::string> names = {"p0", "p1", "p2", "p3"};
  const std::vector<Fact> facts = {{1, 0}, {3, 0}, {2, 5}};
  const std::vector<std::string> full = {"p0", "p1", "p2", "p3"};
  check(eppi::perfbench::answer_covers(full, facts, 5, names),
        "an answer with every true provider plus noise covers");
  const std::vector<std::string> dropped = {"p0", "p2", "p3"};  // no p1
  check(!eppi::perfbench::answer_covers(dropped, facts, 5, names),
        "an answer with one dropped provider is flagged");
  const std::vector<std::string> before = {"p1", "p3"};
  check(eppi::perfbench::answer_covers(before, facts, 4, names),
        "a fact delegated after the answer's epoch is not required");
  check(!eppi::perfbench::answer_covers(before, facts, 5, names),
        "a fact is required from its epoch on");

  eppi::BitMatrix truth(2, 70), published(2, 70);
  truth.set(0, 3, true);
  truth.set(1, 69, true);
  published.set(0, 3, true);
  published.set(0, 4, true);
  check(eppi::perfbench::missing_cells(truth, published) == 1,
        "one true cell unpublished is one missing cell");
  published.set(1, 69, true);
  check(eppi::perfbench::missing_cells(truth, published) == 0,
        "a superset misses nothing");
}

void test_result_json() {
  eppi::perfbench::Tally t;
  t.record(true);
  const std::vector<eppi::perfbench::Metric> metrics = {
      {"read_p50_us", 28.125, "us"}, {"ok_frac", 1.0, "frac"}};
  check(eppi::perfbench::result_json(t, metrics) ==
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"read_p50_us\": {\"value\": 28.125, \"unit\": "
            "\"us\"}, \"ok_frac\": {\"value\": 1, \"unit\": \"frac\"}}}",
        "result line layout");
  t.record(false);
  check(eppi::perfbench::result_json(t, {}).starts_with(
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1"),
        "a failure makes the run incorrect");
  const std::vector<eppi::perfbench::Metric> bad = {{"x", NAN, "s"}};
  check(throws([&] { (void)eppi::perfbench::result_json(t, bad); }),
        "a non-finite value is refused");
}

}  // namespace

int main() {
  test_percentiles();
  test_quiet_median();
  test_fine_histogram();
  test_windowed_reads();
  test_tally();
  test_recall();
  test_result_json();
  if (failures == 0) std::cout << "perfbench helpers: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
