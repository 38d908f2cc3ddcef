#include "helpers.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "obs/build_info.h"
#include "obs/json_escape.h"

namespace eppi::perfbench {

double percentile(std::span<const double> sorted_samples, double q) {
  eppi::require(!sorted_samples.empty(), "percentile: no samples");
  eppi::require(q >= 0.0 && q <= 1.0, "percentile: q outside [0,1]");
  const double pos = q * static_cast<double>(sorted_samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted_samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_samples[lo] + frac * (sorted_samples[hi] - sorted_samples[lo]);
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile(samples, 0.5);
}

double quiet_median(std::span<const double> values,
                    std::span<const double> steal) {
  eppi::require(!values.empty() && values.size() == steal.size(),
                "quiet_median: need matching, non-empty samples");
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  const std::size_t keep =
      std::max(std::min<std::size_t>(2, values.size()), values.size() / 3);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < keep; ++i) quiet.push_back(values[order[i]]);
  return median(std::move(quiet));
}

std::string sample_note(const std::string& label,
                        const std::vector<double>& samples,
                        const std::string& unit) {
  std::ostringstream out;
  out << label << ':';
  for (const double v : samples) out << ' ' << v;
  out << ' ' << unit;
  return out.str();
}

FineHistogram::FineHistogram()
    : counts_(static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets,
              0) {}

std::size_t FineHistogram::bucket_of(double us) noexcept {
  if (!(us > 0.0)) return 0;
  int exp = 0;
  const double mant = std::frexp(us, &exp);  // us = mant·2^exp, mant ∈ [.5,1)
  if (exp < kMinExp) return 0;
  if (exp > kMaxExp) {
    return static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets - 1;
  }
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((mant - 0.5) * 2 * kSubBuckets));
  return static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double FineHistogram::lower_edge(std::size_t bucket) noexcept {
  const int exp = static_cast<int>(bucket / kSubBuckets) + kMinExp;
  const double sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(0.5 + sub / (2 * kSubBuckets), exp);
}

void FineHistogram::record(double us) noexcept {
  ++counts_[bucket_of(us)];
  ++count_;
}

void FineHistogram::merge(const FineHistogram& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double FineHistogram::value_at_rank(std::uint64_t rank) const noexcept {
  std::uint64_t before = 0;
  std::size_t i = 0;
  while (i + 1 < counts_.size() && before + counts_[i] <= rank) {
    before += counts_[i++];
  }
  // The bucket's samples are taken as spread evenly across it.
  const double lo = lower_edge(i);
  const double width = lower_edge(i + 1) - lo;
  const auto in_bucket = std::max<std::uint64_t>(1, counts_[i]);
  const double share = (static_cast<double>(rank - before) + 0.5) /
                       static_cast<double>(in_bucket);
  return lo + share * width;
}

double FineHistogram::percentile(double q) const {
  eppi::require(count_ > 0, "FineHistogram::percentile: no samples");
  eppi::require(q >= 0.0 && q <= 1.0,
                "FineHistogram::percentile: q outside [0,1]");
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  const double a = value_at_rank(lo);
  if (frac == 0.0) return a;
  return a + frac * (value_at_rank(std::min(lo + 1, count_ - 1)) - a);
}

std::vector<Window> fixed_windows(double wall_s, double window_s) {
  eppi::require(window_s > 0.0 && wall_s > 0.0,
                "fixed_windows: need positive durations");
  const auto full = static_cast<std::size_t>(wall_s / window_s);
  if (full == 0) return {Window{0.0, wall_s}};
  std::vector<Window> out(full);
  for (std::size_t w = 0; w < full; ++w) {
    out[w] = Window{static_cast<double>(w) * window_s,
                    static_cast<double>(w + 1) * window_s};
  }
  return out;
}

WindowedReads windowed_reads(std::span<const FineHistogram> latency,
                             std::span<const Window> windows,
                             std::size_t owners_per_sample) {
  std::vector<double> p50, p99, rate;
  WindowedReads out;
  for (std::size_t i = 0; i < windows.size() && i < latency.size(); ++i) {
    const Window& w = windows[i];
    eppi::require(w.end_s > w.begin_s, "windowed_reads: empty window");
    const FineHistogram& h = latency[i];
    if (h.count() == 0) continue;
    p50.push_back(h.percentile(0.50));
    p99.push_back(h.percentile(0.99));
    rate.push_back(static_cast<double>(h.count() * owners_per_sample) /
                   (w.end_s - w.begin_s));
    out.samples += h.count();
  }
  eppi::require(!p50.empty(), "windowed_reads: no sample in any window");
  out.windows = p50.size();
  out.window_p50_us = p50;
  out.p50_us = median(std::move(p50));
  out.p99_us = median(std::move(p99));
  out.owners_per_s = median(std::move(rate));
  return out;
}

double Tally::ok_frac() const noexcept {
  if (attempted == 0) return 0.0;
  return static_cast<double>(attempted - failed) /
         static_cast<double>(attempted);
}

bool answer_covers(std::span<const std::string> answer,
                   std::span<const Fact> facts, std::uint64_t epoch,
                   std::span<const std::string> provider_names) {
  return std::all_of(facts.begin(), facts.end(), [&](const Fact& f) {
    if (f.since > epoch) return true;  // not yet delegated at that epoch
    const std::string& name = provider_names[f.provider];
    return std::find(answer.begin(), answer.end(), name) != answer.end();
  });
}

std::size_t missing_cells(const eppi::BitMatrix& truth,
                          const eppi::BitMatrix& published) {
  eppi::require(truth.rows() == published.rows() &&
                    truth.cols() == published.cols(),
                "missing_cells: shape mismatch");
  std::size_t missing = 0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    const std::uint64_t* t = truth.row_words(i);
    const std::uint64_t* p = published.row_words(i);
    for (std::size_t w = 0; w < truth.words_per_row(); ++w) {
      missing += static_cast<std::size_t>(std::popcount(t[w] & ~p[w]));
    }
  }
  return missing;
}

namespace {

std::string number(double v) {
  eppi::require(std::isfinite(v), "result_json: non-finite metric value");
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  eppi::require(ec == std::errc(), "result_json: unprintable value");
  return std::string(buf, end);
}

}  // namespace

std::string result_json(const Tally& tally, std::span<const Metric> metrics) {
  std::ostringstream out;
  out << "{\"correct\": "
      << (tally.attempted > 0 && tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out << ", ";
    out << '"' << obs::json_escape(metrics[k].name) << "\": {\"value\": "
        << number(metrics[k].value) << ", \"unit\": \""
        << obs::json_escape(metrics[k].unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  if (cpu != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::string host_fingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=" + model;
}

std::string build_info_json() {
  return std::string("{\"version\": \"") +
         obs::json_escape(obs::build_version()) + "\", \"sha\": \"" +
         obs::json_escape(obs::build_git_sha()) + "\", \"compiler\": \"" +
         obs::json_escape(obs::build_compiler()) + "\"}";
}

std::uint64_t span_attr_u64(const eppi::obs::SpanEvent& ev,
                            std::string_view key, std::uint64_t fallback) {
  for (std::uint32_t k = 0; k < ev.n_attrs && k < ev.kMaxAttrs; ++k) {
    const auto& a = ev.attrs[k];
    if (std::string_view(a.key, ::strnlen(a.key, a.kKeyCap)) != key) continue;
    if (a.value.type == obs::AttrValue::Type::kU64) return a.value.u64;
    if (a.value.type == obs::AttrValue::Type::kI64) {
      return static_cast<std::uint64_t>(a.value.i64);
    }
  }
  return fallback;
}

SpanCollector::SpanCollector(std::vector<std::string> keep_prefixes,
                             std::chrono::milliseconds period)
    : keep_(std::move(keep_prefixes)), period_(period) {
  // Start from an empty ring: whatever ran untraced before is not ours.
  (void)obs::default_sink().drain();
  dropped_base_ = obs::default_sink().dropped();
  thread_ = std::thread([this] { loop(); });
}

SpanCollector::~SpanCollector() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SpanCollector::join() {
  std::lock_guard<std::mutex> lock(mu_);
  ++active_;
}

void SpanCollector::leave() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
  cv_.notify_all();
}

void SpanCollector::checkpoint() {
  if (!pause_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(mu_);
  ++parked_;
  cv_.notify_all();
  cv_.wait(lock, [&] { return !pause_.load(std::memory_order_relaxed); });
  --parked_;
}

void SpanCollector::drain_locked() {
  for (const auto& ev : obs::default_sink().drain()) {
    ++drained_;
    const std::string_view name = ev.name_view();
    for (const auto& prefix : keep_) {
      if (name.starts_with(prefix)) {
        kept_.push_back(ev);
        break;
      }
    }
  }
}

void SpanCollector::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, period_, [&] { return stop_; });
    if (stop_) break;
    pause_.store(true, std::memory_order_release);
    cv_.wait(lock, [&] { return stop_ || parked_ == active_; });
    drain_locked();
    pause_.store(false, std::memory_order_release);
    cv_.notify_all();
  }
}

std::vector<obs::SpanEvent> SpanCollector::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
  return std::move(kept_);
}

std::uint64_t SpanCollector::dropped() const noexcept {
  return obs::default_sink().dropped() - dropped_base_;
}

}  // namespace eppi::perfbench
