// The benchmark's workloads and the per-layer report they share.
#pragma once

#include <cstdint>
#include <mutex>

#include "trace.h"
#include "util.h"

namespace perfbench {

/// causal-rounds (total == false) and total-rounds (total == true).
RunResult run_group_rounds(const RunOptions& options, bool total);

/// kv-sessions.
RunResult run_kv_sessions(const RunOptions& options);

/// What an untraced run measured in its window; the end-to-end metrics
/// are computed from it the same way for every workload.
struct WindowFigures {
  std::int64_t window_ns = 0;
  std::int64_t start_ns = 0;  ///< window start (the first timed op)
  double cpu_ms = 0;          ///< process CPU time inside the window
  double rss_mb = 0;          ///< VmHWM after the loops stopped
  double steal_ms = 0;        ///< machine steal time inside the window
  const RateBuckets& rate;    ///< completions by time
  const LatencySlices& latency;  ///< ops completed in the window

  [[nodiscard]] Metrics metrics() const;
  /// Completions per second and steal, for the run's stderr summary.
  [[nodiscard]] std::string profile() const;
};

/// Whole-run figures the traced run reads besides the span aggregates.
/// Per-member figures are means over the group's members.
struct LayerInputs {
  bool osend = false;  ///< causal.* metrics apply
  bool asend = false;  ///< total.* metrics apply
  bool kv = false;     ///< kv.* metrics apply
  double ops = 0;      ///< ops completed after the window opened
  double bytes_sent = 0;  ///< UDP payload bytes sent after the window opened
  double graph_nodes = 0;
  double log_entries = 0;
  double holdback_max = 0;
  double asend_frames_received = 0;
  double asend_delivered = 0;
  double sequence_len = 0;
  double stable_snapshots = 0;
  double flight_records = 0;  ///< flight-ring records after the window opened
  double context_waits = 0;
  double retries = 0;
  Histogram context_wait_ns;
  Histogram wire_ns;
};

/// Every per-layer metric (0 where a layer is not on the workload's path).
Metrics layer_metrics(const LayerInputs& in);

/// Mutex-guarded histogram for rare cross-thread samples.
class SharedHistogram {
 public:
  void record(std::int64_t value) {
    const std::lock_guard<std::mutex> guard(mutex_);
    hist_.record(value);
  }
  Histogram snapshot() {
    const std::lock_guard<std::mutex> guard(mutex_);
    return hist_;
  }

 private:
  std::mutex mutex_;
  Histogram hist_;
};

}  // namespace perfbench
