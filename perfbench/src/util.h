// Shared bookkeeping for the end-to-end benchmark: clocks, a bounded
// latency histogram, process resource readings, seeded randomness, port
// reservation and a completion signal the driver thread sleeps on.
//
// Everything here is sized up front or bounded by a constant, so the
// benchmark's own memory does not grow with run length and the process's
// peak RSS measures the program under test.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock; vDSO read, no syscall).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds at process start (first statement of main()).
extern std::int64_t g_process_start_ns;

/// Interquartile mean: the mean of `values` after dropping the lowest and
/// the highest quarter (n / 4 values each); 0 when empty.
double interquartile_mean(std::vector<double> values);

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Log-linear histogram over non-negative integers (nanoseconds): exact
/// below 128, then 64 sub-buckets per power of two (<= 1.6% relative
/// bucket width). Fixed size; merging is element-wise.
class Histogram {
 public:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = 128 + 40 * kSub;

  void record(std::int64_t value);
  void merge(const Histogram& other);
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static int index_of(std::uint64_t value);
  static double midpoint(int index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// The window is measured in slices of a nominal length (whole slices,
/// at least kMinSlices). The rate and the tail latency are reported as
/// interquartile means over the slices, so a few seconds of host CPU
/// steal do not decide them.
constexpr std::int64_t kMinSlices = 5;
/// Rates: one slice per second.
constexpr std::int64_t kRateSliceNs = 1'000'000'000;
/// Tail latency: half-second slices, merged in time order into groups of
/// at least kTailSamples ops, so that every group has at least ten
/// samples beyond its 99th percentile however slow the workload runs.
constexpr std::int64_t kLatencySliceNs = 500'000'000;
constexpr std::uint64_t kTailSamples = 1000;
/// Number of slices of nominal length `nominal_ns` in `window_ns`.
std::int64_t slice_count(std::int64_t window_ns, std::int64_t nominal_ns);
/// Their length, a multiple of RateBuckets::kBucketNs.
std::int64_t slice_length_ns(std::int64_t window_ns, std::int64_t nominal_ns);

/// Per-10ms completion counts over a run; bounded by the run length.
class RateBuckets {
 public:
  static constexpr std::int64_t kBucketNs = 10'000'000;
  explicit RateBuckets(std::int64_t window_ns)
      : counts_(static_cast<std::size_t>(window_ns / kBucketNs) + 2) {}

  /// Counts one completion at `t_ns` (ns since the window start).
  void add(std::int64_t t_ns) {
    if (t_ns < 0) {
      return;
    }
    const auto i = static_cast<std::size_t>(t_ns / kBucketNs);
    if (i < counts_.size()) {
      counts_[i] += 1;
    }
  }
  void merge(const RateBuckets& other);
  /// Completions with start <= t < end (ns since the window start; both
  /// multiples of kBucketNs).
  [[nodiscard]] std::uint64_t between(std::int64_t start,
                                      std::int64_t end) const;
  /// Completions in each whole second of [0, window_ns), space-separated.
  [[nodiscard]] std::string per_second(std::int64_t window_ns) const;
  /// Interquartile mean over the window's one-second slices of the
  /// completions per second in each slice.
  [[nodiscard]] double interquartile_mean_rate(std::int64_t window_ns) const;

 private:
  std::vector<std::uint64_t> counts_;
};

/// Latencies of the ops completed in the window, kept per half-second
/// slice of the window. A slice's histogram is allocated on its first
/// sample, so the set-up before the window pays for none of them.
class LatencySlices {
 public:
  explicit LatencySlices(std::int64_t window_ns)
      : slice_ns_(slice_length_ns(window_ns, kLatencySliceNs)),
        slices_(static_cast<std::size_t>(
            slice_count(window_ns, kLatencySliceNs))) {}

  /// One op completing `t_ns` after the window opened, after `value` ns.
  void record(std::int64_t t_ns, std::int64_t value) {
    if (t_ns < 0 ||
        t_ns / slice_ns_ >= static_cast<std::int64_t>(slices_.size())) {
      return;
    }
    auto& slice = slices_[static_cast<std::size_t>(t_ns / slice_ns_)];
    if (slice == nullptr) {
      slice = std::make_unique<Histogram>();
    }
    slice->record(value);
  }
  void merge(const LatencySlices& other);
  /// Every op of the window.
  [[nodiscard]] Histogram all() const;
  /// The slices merged in time order into groups of at least
  /// kTailSamples ops (a short last group joins the one before it).
  [[nodiscard]] std::vector<Histogram> groups() const;
  /// The interquartile mean over groups() of each group's q-quantile.
  [[nodiscard]] double interquartile_mean_group_quantile(double q) const;

 private:
  std::int64_t slice_ns_;
  std::vector<std::unique_ptr<Histogram>> slices_;
};

/// Process CPU time (user + system) in milliseconds.
double process_cpu_ms();
/// Time the hypervisor ran other guests on this machine's CPUs, summed
/// over the CPUs, in milliseconds (steal from /proc/stat; diagnostics).
double machine_steal_ms();

/// The clocks read at both edges of the timed window.
struct Clocks {
  double cpu_ms = 0;
  double steal_ms = 0;
  static Clocks read() { return {process_cpu_ms(), machine_steal_ms()}; }
};
/// VmHWM of this process in MB (peak resident set).
double peak_rss_mb();
/// Distinct ephemeral loopback UDP ports (bind :0, read back, close).
std::vector<std::uint16_t> reserve_udp_ports(std::size_t count);

/// Wake-up channel between loop threads and the driver: loop threads
/// publish progress with notify(); the driver sleeps in wait_until()
/// for a predicate over atomics, with a deadline.
class Signal {
 public:
  /// Call after changing what a waiter's predicate reads. Taking the
  /// mutex orders the change before any predicate check that could miss
  /// it, so the wake-up is never lost.
  void notify() {
    { const std::lock_guard<std::mutex> guard(mutex_); }
    cv_.notify_all();
  }
  template <typename Pred>
  bool wait_until(std::int64_t deadline_ns, Pred pred) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!pred()) {
      const std::int64_t left = deadline_ns - now_ns();
      if (left <= 0) {
        return pred();
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(left));
    }
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Ordered name -> value map printed as the result's "metrics" object.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool check_history = false;  ///< kv: record histories for cbc_check
  std::string out_dir = "perfbench/out";
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;  ///< failed output checks, for stderr
  /// Stable-digest chain of one member per group (traced-run cross-check).
  std::vector<std::vector<std::uint64_t>> digest_chains;

  void fail(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

}  // namespace perfbench
