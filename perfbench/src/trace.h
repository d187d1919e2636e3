// In-memory span tracing for the traced benchmark run.
//
// The benchmark inserts pass-through decorators at every layer boundary
// of the production stack and opens one span per call across a boundary:
//
//   replica.submit     bench wrapper around ReplicaNode::submit
//   checker.broadcast  ProtocolLayer decorator above InvariantChecker
//   checker.deliver      (its upcall into ReplicaNode = replica apply)
//   member.broadcast   ProtocolLayer decorator above OSend/ASendMember
//   member.deliver       (its upcall into InvariantChecker)
//   batch.send         Transport decorator above BatchingTransport
//   batch.upcall         (per-frame upcall into the ordering member)
//   udp.send           Transport decorator above UdpTransport
//   udp.upcall           (per-datagram upcall into BatchingTransport)
//   kv.handle.<kind>   wrapper around KvService::handle
//   kv.reply           wrapper around the service's reply function
//
// A span's self time is its duration minus the durations of the spans
// it directly encloses, so each boundary span's self time is the cost of
// the layer just below it. Spans live in per-thread buffers (the first
// kMaxStoredSpans per thread are kept for the Chrome trace file); self
// times are aggregated online, so the aggregates cover every span of the
// run in bounded memory.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stack/protocol_layer.h"
#include "transport/transport.h"
#include "util.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kReplicaSubmit,
  kCheckerBroadcast,
  kCheckerDeliver,
  kMemberBroadcast,
  kMemberDeliver,
  kBatchSend,
  kBatchUpcall,
  kUdpSend,
  kUdpUpcall,
  kKvGet,
  kKvPut,
  kKvFence,
  kKvOther,
  kKvReply,
  kCount,
};

[[nodiscard]] const char* span_name(SpanName name);

/// Aggregated self time of one span name.
struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::uint64_t late_count = 0;  ///< spans starting in the late window
  std::int64_t late_self_ns = 0;
  Histogram self_hist;  ///< filled for kv.handle.* only
};

/// Process-wide trace state. Tracing is switched on once, before any
/// loop thread starts, and stays on for the whole traced run.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Spans starting before `start_ns` are neither aggregated nor stored;
  /// spans starting at or after `late_ns` also count as late.
  void set_window(std::int64_t start_ns, std::int64_t late_ns) {
    late_ns_.store(late_ns, std::memory_order_relaxed);
    start_ns_.store(start_ns, std::memory_order_release);
  }

  /// Per-name aggregates summed over every thread (call after the
  /// threads have been joined).
  [[nodiscard]] std::array<SpanAggregate, static_cast<std::size_t>(
                                              SpanName::kCount)>
  totals() const;

  /// Writes the stored spans as Chrome trace-event JSON.
  bool write_chrome_trace(const std::string& path) const;

  struct Frame {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  ///< index into the thread's stored spans, or -1
    std::uint64_t id;
  };
  struct Record {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::int64_t parent;  ///< index of the enclosing stored span, or -1
    SpanName name;
  };
  struct ThreadState {
    std::uint32_t tid = 0;
    std::vector<Frame> stack;
    std::vector<Record> records;
    std::array<SpanAggregate, static_cast<std::size_t>(SpanName::kCount)>
        aggregates{};
  };

  ThreadState& thread_state();
  [[nodiscard]] std::int64_t window_start() const {
    return start_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t late_start() const {
    return late_ns_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kMaxStoredSpans = 20'000;

 private:
  bool enabled_ = false;
  std::atomic<std::int64_t> start_ns_{INT64_MAX};
  std::atomic<std::int64_t> late_ns_{INT64_MAX};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span; a no-op unless tracing is enabled.
class Span {
 public:
  explicit Span(SpanName name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_id(std::uint64_t id);

 private:
  Tracer::ThreadState* state_ = nullptr;
};

/// Packs a message id into a span id: sender in the top 16 bits.
[[nodiscard]] inline std::uint64_t span_id(const cbc::MessageId& id) {
  return (static_cast<std::uint64_t>(id.sender) << 48) | id.seq;
}

/// Pass-through Transport decorator: one span per send() and per
/// receive upcall, plus frame and byte counts of what it sends.
class TracingTransport final : public cbc::Transport {
 public:
  TracingTransport(cbc::Transport& inner, SpanName send_span,
                   SpanName upcall_span)
      : inner_(inner), send_span_(send_span), upcall_span_(upcall_span) {}
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  cbc::NodeId add_endpoint(Handler handler) override;
  [[nodiscard]] std::size_t endpoint_count() const override {
    return inner_.endpoint_count();
  }
  using Transport::send;
  void send(cbc::NodeId from, cbc::NodeId to,
            cbc::SharedBuffer frame) override;
  void schedule(cbc::SimTime delay_us,
                std::function<void()> action) override {
    inner_.schedule(delay_us, std::move(action));
  }
  [[nodiscard]] cbc::SimTime now_us() const override {
    return inner_.now_us();
  }

  /// Runs after every 16th upcall, on the loop thread (hold-back sampling).
  void set_upcall_sampler(std::function<void()> sampler) {
    sampler_ = std::move(sampler);
  }

  [[nodiscard]] std::uint64_t sends() const {
    return sends_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  cbc::Transport& inner_;
  SpanName send_span_;
  SpanName upcall_span_;
  std::function<void()> sampler_;
  std::uint64_t upcalls_ = 0;  // loop thread only
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Pass-through ProtocolLayer decorator: one span per broadcast() and per
/// delivery upcall, plus a count of deliveries handed upward.
class TracingLayer final : public cbc::ProtocolLayer {
 public:
  TracingLayer(std::unique_ptr<cbc::BroadcastMember> lower,
               SpanName broadcast_span, SpanName deliver_span)
      : ProtocolLayer(std::move(lower)),
        broadcast_span_(broadcast_span),
        deliver_span_(deliver_span) {}
  TracingLayer(const TracingLayer&) = delete;
  TracingLayer& operator=(const TracingLayer&) = delete;

  cbc::MessageId broadcast(std::string label,
                           std::vector<std::uint8_t> payload,
                           const cbc::DepSpec& deps) override;

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

 protected:
  void on_lower_delivery(const cbc::Delivery& delivery) override;

 private:
  SpanName broadcast_span_;
  SpanName deliver_span_;
  std::uint64_t deliveries_ = 0;  // loop thread only
};

}  // namespace perfbench
