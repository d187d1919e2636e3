#include "trace.h"

#include <cstdio>
#include <fstream>
#include <mutex>

namespace perfbench {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {
        "replica.submit", "checker.broadcast", "checker.deliver",
        "member.broadcast", "member.deliver", "batch.send",
        "batch.upcall", "udp.send", "udp.upcall",
        "kv.handle.get", "kv.handle.put", "kv.handle.fence",
        "kv.handle.other", "kv.reply",
};

bool keeps_histogram(SpanName name) {
  return name == SpanName::kKvGet || name == SpanName::kKvPut ||
         name == SpanName::kKvFence;
}

thread_local Tracer::ThreadState* t_state = nullptr;

}  // namespace

const char* span_name(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadState& Tracer::thread_state() {
  if (t_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    state->stack.reserve(64);
    const std::lock_guard<std::mutex> guard(mutex_);
    state->tid = static_cast<std::uint32_t>(threads_.size() + 1);
    t_state = state.get();
    threads_.push_back(std::move(state));
  }
  return *t_state;
}

std::array<SpanAggregate, static_cast<std::size_t>(SpanName::kCount)>
Tracer::totals() const {
  std::array<SpanAggregate, static_cast<std::size_t>(SpanName::kCount)> sum{};
  const std::lock_guard<std::mutex> guard(mutex_);
  for (const auto& thread : threads_) {
    for (std::size_t i = 0; i < sum.size(); ++i) {
      const SpanAggregate& a = thread->aggregates[i];
      sum[i].count += a.count;
      sum[i].self_ns += a.self_ns;
      sum[i].late_count += a.late_count;
      sum[i].late_self_ns += a.late_self_ns;
      sum[i].self_hist.merge(a.self_hist);
    }
  }
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const std::lock_guard<std::mutex> guard(mutex_);
  char line[320];
  for (const auto& thread : threads_) {
    for (std::size_t i = 0; i < thread->records.size(); ++i) {
      const Record& r = thread->records[i];
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
          "\"id\":\"%llu.%llu\"}}",
          first ? "" : ",\n", span_name(r.name), thread->tid,
          static_cast<double>(r.start_ns - g_process_start_ns) / 1e3,
          static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
          static_cast<long long>(r.parent),
          static_cast<unsigned long long>(r.id >> 48),
          static_cast<unsigned long long>(r.id & ((1ULL << 48) - 1)));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(SpanName name, std::uint64_t id) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) {
    return;
  }
  state_ = &tracer.thread_state();
  std::int64_t record = -1;
  const std::int64_t start = now_ns();
  if (start >= tracer.window_start() &&
      state_->records.size() < Tracer::kMaxStoredSpans) {
    if (state_->records.capacity() == 0) {
      state_->records.reserve(Tracer::kMaxStoredSpans);
    }
    std::int64_t parent = -1;
    if (!state_->stack.empty()) {
      parent = state_->stack.back().record;
    }
    record = static_cast<std::int64_t>(state_->records.size());
    state_->records.push_back({start, 0, id, parent, name});
  }
  state_->stack.push_back({name, start, 0, record, id});
}

void Span::set_id(std::uint64_t id) {
  if (state_ == nullptr) {
    return;
  }
  Tracer::Frame& frame = state_->stack.back();
  frame.id = id;
  if (frame.record >= 0) {
    state_->records[static_cast<std::size_t>(frame.record)].id = id;
  }
}

Span::~Span() {
  if (state_ == nullptr) {
    return;
  }
  const std::int64_t end = now_ns();
  const Tracer::Frame frame = state_->stack.back();
  state_->stack.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  if (!state_->stack.empty()) {
    state_->stack.back().child_ns += duration;
  }
  if (frame.record >= 0) {
    state_->records[static_cast<std::size_t>(frame.record)].end_ns = end;
  }
  const Tracer& tracer = Tracer::instance();
  if (frame.start_ns < tracer.window_start()) {
    return;
  }
  const std::int64_t self = duration - frame.child_ns;
  SpanAggregate& agg =
      state_->aggregates[static_cast<std::size_t>(frame.name)];
  agg.count += 1;
  agg.self_ns += self;
  if (frame.start_ns >= tracer.late_start()) {
    agg.late_count += 1;
    agg.late_self_ns += self;
  }
  if (keeps_histogram(frame.name)) {
    agg.self_hist.record(self);
  }
}

cbc::NodeId TracingTransport::add_endpoint(Handler handler) {
  return inner_.add_endpoint(
      [this, handler = std::move(handler)](cbc::NodeId from,
                                           const cbc::WireFrame& frame) {
        {
          const Span span(upcall_span_);
          handler(from, frame);
        }
        if (sampler_ && (++upcalls_ & 15) == 0) {
          sampler_();
        }
      });
}

void TracingTransport::send(cbc::NodeId from, cbc::NodeId to,
                            cbc::SharedBuffer frame) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(frame->size(), std::memory_order_relaxed);
  const Span span(send_span_);
  inner_.send(from, to, std::move(frame));
}

cbc::MessageId TracingLayer::broadcast(std::string label,
                                       std::vector<std::uint8_t> payload,
                                       const cbc::DepSpec& deps) {
  Span span(broadcast_span_);
  const cbc::MessageId id =
      ProtocolLayer::broadcast(std::move(label), std::move(payload), deps);
  span.set_id(span_id(id));
  return id;
}

void TracingLayer::on_lower_delivery(const cbc::Delivery& delivery) {
  ++deliveries_;
  const Span span(deliver_span_, span_id(delivery.id));
  deliver_up(delivery);
}

}  // namespace perfbench
