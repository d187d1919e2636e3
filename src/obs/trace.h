// Causal tracing — per-envelope spans and flow edges in Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// The paper's explicit Occurs_After DAG is exactly the causality metadata
// distributed tracers normally have to reconstruct; here it is carried on
// every envelope already (the MessageId and DepSpec), so tracing needs no
// wire-format change at all: every event is keyed by the MessageId that
// the envelope codec transports end to end. A Tracer per process records:
//
//   - `submit` instants + a per-message flow start at OSend/ASend submit;
//   - transport events: batch flushes, reliable (re)transmits and
//     duplicate drops, UDP datagram send/recv;
//   - `deliver` complete events (ph "X") whose duration is the causal
//     hold time, bound to the message flow (cross-process arrow from the
//     submitting node) and to one `Occurs_After` flow edge per declared
//     dependency (from the dependency's local deliver — causal delivery
//     guarantees the dependency was delivered here first);
//   - `stable_point` instants from the invariant checker.
//
// Timestamps are wall-clock microseconds (CLOCK_REALTIME), NOT the
// transport clock, so per-process trace files from one ClusterHarness run
// merge into a single timeline (obs/trace_merge.h); the `pid` field is
// the member's NodeId. Durations (hold time) are measured on the
// transport clock and only *rendered* into the wall timeline.
//
// Off-switch: a null Tracer pointer in obs::Hooks is the zero-overhead
// default (one pointer test per site); set_enabled(false) mutes a live
// tracer; building with -DCBC_OBS=OFF compiles every site out entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/message_id.h"
#include "obs/hooks.h"
#include "util/thread_annotations.h"

namespace cbc::obs {

/// One Chrome trace event. `args_json` is a pre-rendered fragment of
/// `"key":value` pairs (no surrounding braces).
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'i';             ///< i / X / s / f / M
  std::int64_t ts_us = 0;    ///< wall-clock micros
  std::int64_t dur_us = 0;   ///< ph == 'X' only
  std::uint32_t pid = 0;
  std::uint64_t flow_id = 0; ///< ph == 's' / 'f' only
  std::string args_json;
};

/// Per-process trace sink. Thread-safe (one mutex around the event
/// buffer); the enabled() fast path is a relaxed atomic load.
class Tracer {
 public:
  struct Options {
    std::uint32_t pid = 0;          ///< rendered pid (the member's NodeId)
    std::string process_name;       ///< Perfetto process label
    std::size_t max_events = 1'000'000;  ///< drop (and count) beyond this
  };

  explicit Tracer(Options options);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Wall-clock microseconds (CLOCK_REALTIME) — shared across processes.
  [[nodiscard]] static std::int64_t wall_now_us();

  void instant(std::string_view name, std::string_view cat,
               std::int64_t ts_us, std::string args_json = {});
  void complete(std::string_view name, std::string_view cat,
                std::int64_t ts_us, std::int64_t dur_us,
                std::string args_json = {});
  void flow_start(std::string_view name, std::string_view cat,
                  std::uint64_t flow_id, std::int64_t ts_us);
  void flow_end(std::string_view name, std::string_view cat,
                std::uint64_t flow_id, std::int64_t ts_us);

  /// Remembers when a message was delivered locally, so later messages
  /// can draw Occurs_After flow edges back to it.
  void note_deliver(const MessageId& id, std::int64_t ts_us);
  [[nodiscard]] std::optional<std::int64_t> deliver_ts(
      const MessageId& id) const;

  [[nodiscard]] std::size_t size() const;
  /// Events dropped at the max_events cap.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::vector<TraceEvent> events_snapshot() const;

  /// Atomically writes `{"traceEvents":[...]}` (one event per line).
  /// Returns false when the file cannot be written.
  bool write_file(const std::string& path) const;
  [[nodiscard]] std::string render_chrome_json() const;

 private:
  void push(TraceEvent event);

  Options options_;
  std::atomic<bool> enabled_{true};
  mutable Mutex mutex_{kRankLeaf, "trace buffer"};
  std::vector<TraceEvent> events_ CBC_GUARDED_BY(mutex_);
  std::unordered_map<MessageId, std::int64_t> deliver_ts_
      CBC_GUARDED_BY(mutex_);
  std::uint64_t dropped_ CBC_GUARDED_BY(mutex_) = 0;
};

/// Escapes a string for inclusion inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Renders a list of events as one `{"traceEvents":[...]}` document —
/// the serializer behind Tracer::render_chrome_json, shared with the
/// flight-recorder decoder so both produce byte-identical schema.
[[nodiscard]] std::string render_trace_events(
    const std::vector<TraceEvent>& events);

/// Stable flow id of one message (its hash).
[[nodiscard]] inline std::uint64_t flow_id(const MessageId& id) {
  return std::hash<MessageId>{}(id);
}

/// Flow id of one Occurs_After edge dep -> dependent.
[[nodiscard]] inline std::uint64_t edge_flow_id(const MessageId& dep,
                                                const MessageId& dependent) {
  return flow_id(dep) * 0x9E3779B97F4A7C15ULL ^ flow_id(dependent);
}

/// True when the hooks carry a live tracer (and observability is compiled
/// in) — the one branch on every instrumented site.
[[nodiscard]] inline bool tracing(const Hooks& hooks) {
  return kCompiledIn && hooks.tracer != nullptr && hooks.tracer->enabled();
}

}  // namespace cbc::obs
