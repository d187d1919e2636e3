// cbc_trace_merge: stitch per-node Chrome trace files into one timeline.
//
//   cbc_trace_merge -o merged.json node0.trace.json node1.trace.json ...
//   cbc_trace_merge --align -o merged.json ...      # clock-corrected
//   cbc_trace_merge --report [-o merged.json] ...   # latency breakdown
//   cbc_trace_merge --report-json report.json ...
//
// --align shifts every process's timestamps by the pairwise clock
// offsets the reliable endpoints estimated (clock_offset instants), so
// cross-node arrows point forward even when machine clocks disagree.
// --report prints the end-to-end latency decomposition (encode / wire /
// causal hold / deliver / kv context wait, percentiles per component,
// per-peer hold and per-process kv wait) computed from the same inputs;
// --report-json writes it as one JSON object for CI gates.
//
// Validates every input, merges by wall-clock timestamp, and prints a
// one-line summary (event/deliver/flow counts) to stderr. Exit 1 on any
// malformed input; exit 2 on usage errors.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json_lite.h"
#include "obs/trace_merge.h"
#include "util/atomic_file.h"

namespace {

int usage() {
  std::cerr << "usage: cbc_trace_merge [--align] [--report] "
               "[--report-json <report.json>]\n"
               "                       [-o <merged.json>] <trace.json>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string report_json_path;
  bool align = false;
  bool report_text = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (i + 1 >= argc) {
        return usage();
      }
      output = argv[++i];
    } else if (arg == "--align") {
      align = true;
    } else if (arg == "--report") {
      report_text = true;
    } else if (arg == "--report-json") {
      if (i + 1 >= argc) {
        return usage();
      }
      report_json_path = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  const bool wants_report = report_text || !report_json_path.empty();
  if (inputs.empty() || (output.empty() && !wants_report)) {
    return usage();
  }
  try {
    const std::vector<cbc::obs::JsonValue> docs =
        cbc::obs::load_trace_files(inputs);
    if (!output.empty()) {
      const std::string merged =
          cbc::obs::merge_trace_docs(docs, {.align = align});
      if (!cbc::write_file_atomic(output, merged)) {
        std::cerr << "cbc_trace_merge: cannot write " << output << "\n";
        return 1;
      }
      const cbc::obs::TraceSummary summary = cbc::obs::summarize_chrome_trace(
          cbc::obs::parse_chrome_trace(merged));
      std::cerr << "cbc_trace_merge: " << inputs.size() << " inputs, "
                << summary.events << " events, ";
      std::size_t delivers = 0;
      for (const auto& [pid, count] : summary.deliver_events) {
        delivers += count;
      }
      std::cerr << delivers << " deliver spans across "
                << summary.deliver_events.size() << " processes, "
                << summary.occurs_after_flows << " Occurs_After flows\n";
    }
    if (wants_report) {
      const cbc::obs::LatencyReport report = cbc::obs::latency_report(docs);
      if (report_text) {
        std::cout << cbc::obs::render_latency_report(report);
      }
      if (!report_json_path.empty()) {
        const std::string json = cbc::obs::latency_report_json(report) + "\n";
        if (!cbc::write_file_atomic(report_json_path, json)) {
          std::cerr << "cbc_trace_merge: cannot write " << report_json_path
                    << "\n";
          return 1;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "cbc_trace_merge: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
