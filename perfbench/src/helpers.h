// Helpers shared by the benchmark's workloads: percentiles over raw
// samples and the per-run figures built on them (windowed reads, the
// least-stolen median), the ok/attempted tally behind `ok_frac`, the
// recall check (every answer must contain the owner's true providers), the
// result line, the host/build fingerprint printed beside every result, and
// the span collector of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bit_matrix.h"
#include "obs/trace.h"

namespace eppi::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// q-quantile (q in [0,1]) of raw samples by linear interpolation between
// the two closest ranks of the sorted samples (the "type 7" rule: numpy's
// default, Python's statistics.quantiles with method="inclusive"). Exact on
// the samples: no bucketing. Throws ConfigError on no samples or q outside
// [0,1].
double percentile(std::span<const double> sorted_samples, double q);

// Sorts a copy and returns its median (percentile 0.5).
double median(std::vector<double> samples);

// Median of the samples taken while the host stole the least CPU time:
// those whose `steal` share is within the lowest third of the run's (at
// least two samples, when there are two). On a virtual machine whose
// neighbours come and go, a lock-step protocol slows by several times the
// stolen share; this keeps the figure about the program. Throws
// ConfigError on no or mismatched samples.
double quiet_median(std::span<const double> values,
                    std::span<const double> steal);

// "label: a b c unit" — the raw samples behind a figure, for the notes.
std::string sample_note(const std::string& label,
                        const std::vector<double>& samples,
                        const std::string& unit);

// Latency histogram for read latencies in µs. Each octave is cut into 128
// buckets, so a bucket is under 0.8% of its values wide: fine enough that
// a percentile does not snap to a bucket edge (unlike log2 buckets, which
// would double a p50 when it crossed one). Its memory is fixed, so a
// faster program taking more samples in a run does not grow peak_rss_mb.
class FineHistogram {
 public:
  FineHistogram();
  void record(double us) noexcept;
  void merge(const FineHistogram& other) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  // q-quantile (q in [0,1]) by the rank rule of percentile() below, the
  // samples of a bucket taken as spread evenly across it. Throws
  // ConfigError when empty or q is outside [0,1].
  double percentile(double q) const;

 private:
  static constexpr int kSubBuckets = 128;
  static constexpr int kMinExp = -6;  // 2^-7 µs and below share bucket 0
  static constexpr int kMaxExp = 28;  // 2^28 µs and above share the last
  static std::size_t bucket_of(double us) noexcept;
  static double lower_edge(std::size_t bucket) noexcept;
  double value_at_rank(std::uint64_t rank) const noexcept;

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

// A span of a run, in seconds from its start.
struct Window {
  double begin_s = 0.0;
  double end_s = 0.0;
};

// Back-to-back windows of `window_s` over [0, wall_s); a trailing partial
// window is dropped, and a run shorter than one window is one window.
std::vector<Window> fixed_windows(double wall_s, double window_s);

// Read-side figures per window: `latency[i]` holds the latencies of the
// calls that ended inside `windows[i]`, which give that window's p50, p99
// and owners per second. Reported is the median of each over the windows,
// so a burst on the host that slows a few windows does not move it.
// Windows without samples (or without a histogram) are skipped; throws
// ConfigError if every window is empty.
struct WindowedReads {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double owners_per_s = 0.0;
  std::size_t windows = 0;
  std::uint64_t samples = 0;
  std::vector<double> window_p50_us;  // each window's p50, in window order
};
WindowedReads windowed_reads(std::span<const FineHistogram> latency,
                             std::span<const Window> windows,
                             std::size_t owners_per_sample);

// Correct vs. attempted operations. An operation that threw or answered
// wrong is recorded as failed; ok_frac() is the share answered right.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
  void record_failed(std::uint64_t count) noexcept {
    attempted += count;
    failed += count;
  }
  void merge(const Tally& other) noexcept {
    attempted += other.attempted;
    failed += other.failed;
  }
  // 0 when nothing was attempted: an empty run proves nothing.
  double ok_frac() const noexcept;
};

// One true membership fact of an owner: `provider` holds the owner's
// records from epoch `since` on (0: from before the first epoch).
struct Fact {
  std::uint32_t provider = 0;
  std::uint64_t since = 0;
};

// The paper's 100% recall: true iff every fact in force at `epoch` names a
// provider that appears in `answer` (extra providers are the privacy noise
// and are allowed). `provider_names` maps Fact::provider to its name.
bool answer_covers(std::span<const std::string> answer,
                   std::span<const Fact> facts, std::uint64_t epoch,
                   std::span<const std::string> provider_names);

// Cells set in `truth` but clear in `published` — a published index must
// have none (same shape required; throws ConfigError otherwise).
std::size_t missing_cells(const eppi::BitMatrix& truth,
                          const eppi::BitMatrix& published);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: one JSON object with exactly the keys correct,
// attempted, failed and metrics. Values are printed in shortest
// round-trip form (every digit as measured). Throws ConfigError on a
// non-finite value.
std::string result_json(const Tally& tally, std::span<const Metric> metrics);

// Process peak resident set (VmHWM) in MB (10^6 bytes); 0 if unavailable.
double peak_rss_mb();

// Cumulative CPU steal (time the hypervisor ran something else on this
// machine's virtual CPUs) and total CPU time, in clock ticks, from
// /proc/stat; {0, 0} if unavailable. Printed beside results: wall-clock
// figures taken while steal was high are not comparable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

// Share of the CPU time between two readings that was stolen (0 if none
// passed or /proc/stat is unavailable).
double steal_share(const CpuTicks& from, const CpuTicks& to);

// "nproc=4 cpu=<model>" and the build_info triple as a JSON object.
std::string host_fingerprint();
std::string build_info_json();

// Value of a span's unsigned attribute, or `fallback` if absent.
std::uint64_t span_attr_u64(const eppi::obs::SpanEvent& ev,
                            std::string_view key,
                            std::uint64_t fallback = 0);

// Seconds spanned by an event.
inline double span_seconds(const eppi::obs::SpanEvent& ev) {
  return static_cast<double>(ev.end_ns - ev.start_ns) * 1e-9;
}

// Drains obs::default_sink() without losing spans. A drain that runs while
// another thread is mid-record counts that span as dropped, so the
// collector pauses the threads that record at a high rate (the readers):
// every `period` it asks them to park at their next checkpoint(), drains
// while they are parked, and releases them. Threads that record only a few
// spans per second (the churn writer) are not paused. Keeps the drained
// events whose name starts with one of `keep_prefixes`.
class SpanCollector {
 public:
  SpanCollector(std::vector<std::string> keep_prefixes,
                std::chrono::milliseconds period);
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  // A pausable thread enters/leaves; checkpoint() parks it on request.
  void join();
  void leave();
  void checkpoint();

  // Stops the periodic drains, drains once more, and returns what was kept.
  std::vector<eppi::obs::SpanEvent> finish();
  std::uint64_t drained() const noexcept { return drained_; }
  // Spans the sink dropped since this collector started.
  std::uint64_t dropped() const noexcept;

 private:
  void drain_locked();
  void loop();

  std::vector<std::string> keep_;
  std::chrono::milliseconds period_;
  std::uint64_t dropped_base_ = 0;
  std::uint64_t drained_ = 0;
  std::vector<eppi::obs::SpanEvent> kept_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> pause_{false};
  std::size_t active_ = 0;  // guarded by mu_
  std::size_t parked_ = 0;  // guarded by mu_
  bool stop_ = false;       // guarded by mu_
  std::thread thread_;      // last: it uses the members above
};

// RAII membership of a pausable thread in a collector (which may be null).
class CollectorGuard {
 public:
  explicit CollectorGuard(SpanCollector* c) : c_(c) {
    if (c_ != nullptr) c_->join();
  }
  ~CollectorGuard() {
    if (c_ != nullptr) c_->leave();
  }
  CollectorGuard(const CollectorGuard&) = delete;
  CollectorGuard& operator=(const CollectorGuard&) = delete;

 private:
  SpanCollector* c_;
};

}  // namespace eppi::perfbench
