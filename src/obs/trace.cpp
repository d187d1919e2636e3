#include "obs/trace.h"

#include <cstdio>
#include <ctime>
#include <sstream>

#include "util/atomic_file.h"

namespace cbc::obs {

Tracer::Tracer(Options options) : options_(std::move(options)) {
  events_.reserve(1024);
  if (!options_.process_name.empty()) {
    // Perfetto/chrome://tracing reads process labels from "M" metadata
    // events named process_name.
    TraceEvent meta;
    meta.name = "process_name";
    meta.cat = "__metadata";
    meta.ph = 'M';
    meta.ts_us = 0;
    meta.pid = options_.pid;
    meta.args_json = "\"name\":\"" + json_escape(options_.process_name) + "\"";
    events_.push_back(std::move(meta));
  }
}

std::int64_t Tracer::wall_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

void Tracer::push(TraceEvent event) {
  if (!enabled()) {
    // Instrumented sites gate on tracing(hooks) already, but the mute
    // contract must also hold for direct calls.
    return;
  }
  const LockGuard lock(mutex_);
  if (events_.size() >= options_.max_events) {
    dropped_ += 1;
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string_view name, std::string_view cat,
                     std::int64_t ts_us, std::string args_json) {
  TraceEvent event;
  event.name.assign(name);
  event.cat.assign(cat);
  event.ph = 'i';
  event.ts_us = ts_us;
  event.pid = options_.pid;
  event.args_json = std::move(args_json);
  push(std::move(event));
}

void Tracer::complete(std::string_view name, std::string_view cat,
                      std::int64_t ts_us, std::int64_t dur_us,
                      std::string args_json) {
  TraceEvent event;
  event.name.assign(name);
  event.cat.assign(cat);
  event.ph = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us < 0 ? 0 : dur_us;
  event.pid = options_.pid;
  event.args_json = std::move(args_json);
  push(std::move(event));
}

void Tracer::flow_start(std::string_view name, std::string_view cat,
                        std::uint64_t flow_id, std::int64_t ts_us) {
  TraceEvent event;
  event.name.assign(name);
  event.cat.assign(cat);
  event.ph = 's';
  event.ts_us = ts_us;
  event.pid = options_.pid;
  event.flow_id = flow_id;
  push(std::move(event));
}

void Tracer::flow_end(std::string_view name, std::string_view cat,
                      std::uint64_t flow_id, std::int64_t ts_us) {
  TraceEvent event;
  event.name.assign(name);
  event.cat.assign(cat);
  event.ph = 'f';
  event.ts_us = ts_us;
  event.pid = options_.pid;
  event.flow_id = flow_id;
  push(std::move(event));
}

void Tracer::note_deliver(const MessageId& id, std::int64_t ts_us) {
  const LockGuard lock(mutex_);
  deliver_ts_.emplace(id, ts_us);
}

std::optional<std::int64_t> Tracer::deliver_ts(const MessageId& id) const {
  const LockGuard lock(mutex_);
  const auto it = deliver_ts_.find(id);
  if (it == deliver_ts_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::size_t Tracer::size() const {
  const LockGuard lock(mutex_);
  return events_.size();
}

std::uint64_t Tracer::dropped() const {
  const LockGuard lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events_snapshot() const {
  const LockGuard lock(mutex_);
  return events_;
}

namespace {

void render_event(std::ostream& out, const TraceEvent& event) {
  out << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
      << json_escape(event.cat) << "\",\"ph\":\"" << event.ph
      << "\",\"ts\":" << event.ts_us << ",\"pid\":" << event.pid
      << ",\"tid\":" << event.pid;
  if (event.ph == 'X') {
    out << ",\"dur\":" << event.dur_us;
  }
  if (event.ph == 's' || event.ph == 'f') {
    out << ",\"id\":\"0x" << std::hex << event.flow_id << std::dec << "\"";
    if (event.ph == 'f') {
      // Bind to the enclosing slice rather than the next one.
      out << ",\"bp\":\"e\"";
    }
  }
  if (event.ph == 'i') {
    out << ",\"s\":\"t\"";
  }
  if (!event.args_json.empty()) {
    out << ",\"args\":{" << event.args_json << "}";
  }
  out << "}";
}

}  // namespace

std::string render_trace_events(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    render_event(out, events[i]);
    if (i + 1 < events.size()) {
      out << ",";
    }
    out << "\n";
  }
  out << "]}\n";
  return out.str();
}

std::string Tracer::render_chrome_json() const {
  return render_trace_events(events_snapshot());
}

bool Tracer::write_file(const std::string& path) const {
  return write_file_atomic(path, render_chrome_json());
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace cbc::obs
