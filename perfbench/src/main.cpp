// perfbench — end-to-end benchmark of the real-UDP causal-broadcast stack.
//
//   perfbench --workload causal-rounds|total-rounds|kv-sessions
//             --seed N --seconds S --trace 0|1
//             [--check-history] [--out-dir DIR]
//
// Runs one workload for S seconds and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the stack carries the tracing decorators (trace.h) and the
// metrics are per-layer self times and counts. Untraced runs record their
// stable-digest chain in DIR; a traced run with the same seed must agree
// with it over their common prefix (the decorators pass traffic through
// unchanged). --check-history (kv-sessions) records per-replica histories
// in DIR for the offline cbc_check oracle; never use it for timing.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/install.h"
#include "obs/flight_recorder.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

Metrics WindowFigures::metrics() const {
  const double seconds = static_cast<double>(window_ns) / 1e9;
  const double ops = static_cast<double>(rate.between(0, window_ns));
  const double late_ops =
      static_cast<double>(rate.between(window_ns / 5 * 4, window_ns));
  Metrics m;
  m["setup_s"] = {static_cast<double>(start_ns - g_process_start_ns) / 1e9,
                  "s"};
  // Host CPU steal comes in episodes of a few seconds. The rate and the
  // tail are therefore robust statistics over slices of the window
  // (util.h), which such an episode moves only when it covers much of it.
  m["ops_per_s"] = {rate.interquartile_mean_rate(window_ns), "ops/s"};
  m["late_ops_per_s"] = {late_ops / (seconds / 5), "ops/s"};
  m["latency_p50_us"] = {latency.all().quantile(0.50) / 1e3, "us"};
  m["latency_p99_us"] = {
      latency.interquartile_mean_group_quantile(0.99) / 1e3, "us"};
  m["cpu_ms_per_kop"] = {ops > 0 ? cpu_ms / (ops / 1e3) : 0, "ms"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  return m;
}

std::string WindowFigures::profile() const {
  return "ops_per_second=[" + rate.per_second(window_ns) +
         "] steal_ms=" + std::to_string(static_cast<long long>(steal_ms)) +
         " window_ops_per_s=" +
         std::to_string(static_cast<double>(rate.between(0, window_ns)) *
                        1e9 / static_cast<double>(window_ns)) +
         " window_p99_us=" +
         std::to_string(latency.all().quantile(0.99) / 1e3) +
         " tail_groups=" + std::to_string(latency.groups().size());
}

Metrics layer_metrics(const LayerInputs& in) {
  const auto totals = Tracer::instance().totals();
  const auto agg = [&](SpanName name) -> const SpanAggregate& {
    return totals[static_cast<std::size_t>(name)];
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Self time per completed application op, in microseconds.
  const auto per_op = [&](SpanName name) {
    return ratio(static_cast<double>(agg(name).self_ns) / 1e3, in.ops);
  };
  // Self time per span of that name, in microseconds.
  const auto per_span = [&](SpanName name) {
    return ratio(static_cast<double>(agg(name).self_ns) / 1e3,
                 static_cast<double>(agg(name).count));
  };
  const SpanAggregate& upcall = agg(SpanName::kBatchUpcall);
  const double recv_us = per_span(SpanName::kBatchUpcall);
  const double recv_late_us =
      ratio(static_cast<double>(upcall.late_self_ns) / 1e3,
            static_cast<double>(upcall.late_count));
  const double datagrams = static_cast<double>(agg(SpanName::kUdpSend).count);
  const double frames = static_cast<double>(agg(SpanName::kBatchSend).count);
  const auto kv_p50 = [&](SpanName name) {
    return in.kv ? agg(name).self_hist.quantile(0.5) / 1e3 : 0.0;
  };

  Metrics m;
  m["net.send_us_per_op"] = {per_op(SpanName::kUdpSend), "us"};
  m["net.recv_us_per_op"] = {per_op(SpanName::kUdpUpcall), "us"};
  m["net.datagrams_per_op"] = {ratio(datagrams, in.ops), "count"};
  m["net.bytes_per_op"] = {ratio(in.bytes_sent, in.ops), "B"};
  m["transport.batch_us_per_op"] = {per_op(SpanName::kBatchSend), "us"};
  m["transport.frames_per_datagram"] = {ratio(frames, datagrams), "count"};
  m["causal.recv_us_per_msg"] = {in.osend ? recv_us : 0, "us"};
  m["causal.recv_us_per_msg.late"] = {in.osend ? recv_late_us : 0, "us"};
  m["causal.broadcast_us_per_msg"] = {
      in.osend ? per_span(SpanName::kMemberBroadcast) : 0, "us"};
  m["causal.graph_nodes"] = {in.graph_nodes, "count"};
  m["causal.log_entries"] = {in.log_entries, "count"};
  m["causal.holdback_max"] = {in.holdback_max, "count"};
  m["total.recv_us_per_msg"] = {in.asend ? recv_us : 0, "us"};
  m["total.frames_per_msg"] = {
      ratio(in.asend_frames_received, in.asend_delivered), "count"};
  m["check.deliver_us_per_msg"] = {per_span(SpanName::kMemberDeliver), "us"};
  m["check.sequence_len"] = {in.sequence_len, "count"};
  m["replica.apply_us_per_msg"] = {per_span(SpanName::kCheckerDeliver),
                                   "us"};
  m["replica.submit_us_per_op"] = {per_span(SpanName::kReplicaSubmit), "us"};
  m["replica.stable_snapshots"] = {in.stable_snapshots, "count"};
  m["kv.get_us_p50"] = {kv_p50(SpanName::kKvGet), "us"};
  m["kv.put_us_p50"] = {kv_p50(SpanName::kKvPut), "us"};
  m["kv.fence_us_p50"] = {kv_p50(SpanName::kKvFence), "us"};
  m["kv.context_wait_us_p99"] = {
      in.kv ? in.context_wait_ns.quantile(0.99) / 1e3 : 0, "us"};
  m["kv.context_waits_per_kop"] = {ratio(in.context_waits, in.ops / 1e3),
                                   "count"};
  m["kv.retries_per_kop"] = {ratio(in.retries, in.ops / 1e3), "count"};
  m["kv.wire_us_p50"] = {in.kv ? in.wire_ns.quantile(0.5) / 1e3 : 0, "us"};
  m["obs.flight_records_per_op"] = {ratio(in.flight_records, in.ops),
                                    "count"};
  return m;
}

}  // namespace perfbench

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload causal-rounds|total-rounds|"
               "kv-sessions --seed N --seconds S --trace 0|1 "
               "[--check-history] [--out-dir DIR]\n";
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error("flag needs a value: " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      options.trace = value() != "0";
    } else if (flag == "--check-history") {
      options.check_history = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value();
    } else {
      usage_error("unknown flag: " + flag);
    }
  }
  if (options.workload != "causal-rounds" &&
      options.workload != "total-rounds" &&
      options.workload != "kv-sessions") {
    usage_error("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0)) {
    usage_error("--seconds must be positive");
  }
  if (options.check_history &&
      (options.trace || options.workload != "kv-sessions")) {
    usage_error("--check-history applies to untraced kv-sessions only");
  }
  return options;
}

std::string chain_path(const RunOptions& options) {
  return options.out_dir + "/digests-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".txt";
}

void write_chains(const std::string& path,
                  const std::vector<std::vector<std::uint64_t>>& chains) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& chain : chains) {
      out << chain.size();
      for (const std::uint64_t digest : chain) {
        out << ' ' << digest;
      }
      out << '\n';
    }
  }
  std::filesystem::rename(tmp, path);
}

/// Compares the traced run's chains with the untraced run's over their
/// common prefix.
void check_chains(const std::string& path, RunResult& result) {
  std::ifstream in(path);
  if (!in) {
    result.fail("no untraced digest chain at " + path +
                " (run the same seed with --trace 0 first)");
    return;
  }
  std::string line;
  std::size_t group = 0;
  while (std::getline(in, line) && group < result.digest_chains.size()) {
    std::istringstream fields(line);
    std::size_t count = 0;
    fields >> count;
    const std::vector<std::uint64_t>& traced = result.digest_chains[group];
    std::size_t compared = 0;
    for (std::size_t i = 0; i < count && i < traced.size(); ++i) {
      std::uint64_t digest = 0;
      fields >> digest;
      if (digest != traced[i]) {
        result.fail("traced stable-digest chain of group " +
                    std::to_string(group) + " differs from the untraced "
                    "run at cycle " + std::to_string(i));
        return;
      }
      ++compared;
    }
    if (compared == 0) {
      result.fail("traced and untraced digest chains share no cycle");
    }
    ++group;
  }
  if (group != result.digest_chains.size()) {
    result.fail("untraced digest file " + path + " has too few chains");
  }
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "null";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start_ns = perfbench::now_ns();
  const RunOptions options = parse_args(argc, argv);
  try {
    std::filesystem::create_directories(options.out_dir);
    cbc::apps::install_objects();
    // Always-on flight recorder, as the shipped binaries install it.
    cbc::obs::FlightRecorder::Options flight_options;
    flight_options.dump_path =
        options.out_dir + "/flight-" + options.workload + ".bin";
    cbc::obs::FlightRecorder flight(flight_options);
    cbc::obs::install_flight_recorder(&flight);
    if (options.trace) {
      perfbench::Tracer::instance().enable();
    }

    RunResult result = options.workload == "kv-sessions"
                           ? perfbench::run_kv_sessions(options)
                       : options.workload == "total-rounds"
                           ? perfbench::run_group_rounds(options, true)
                           : perfbench::run_group_rounds(options, false);
    cbc::obs::install_flight_recorder(nullptr);

    if (options.trace) {
      check_chains(chain_path(options), result);
      const std::string trace_path = options.out_dir + "/trace-" +
                                     options.workload + "-seed" +
                                     std::to_string(options.seed) + ".json";
      if (!perfbench::Tracer::instance().write_chrome_trace(trace_path)) {
        result.fail("cannot write " + trace_path);
      }
    } else if (result.correct && !options.check_history) {
      write_chains(chain_path(options), result.digest_chains);
    }
    for (const std::string& problem : result.problems) {
      std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
    }

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      json += first ? "" : ", ";
      json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
              ", \"unit\": \"" + metric.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: fatal: " << error.what() << "\n";
    return 1;
  }
}
