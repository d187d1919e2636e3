// NodeRuntime — the one place the production group member is assembled.
//
// Every binary that joins a causal or total-order group over real UDP
// (cbc_node, the cbc_kv server) runs this stack, wired bottom-up:
//
//   UdpTransport (kernel datagrams, EventLoop)
//     -> [ChaosTransport]       with --fault-plan; a scripted local crash
//                               dumps the flight ring and _Exit(137)s
//       -> BatchingTransport    (N frames per datagram)
//         -> OSendMember | ASendMember   (reliability on)
//           -> [obs::InstrumentationLayer]   when observability is on
//             -> check::InvariantChecker     (digest_exempt_kinds={"nop"})
//               -> delivery tap              (Options::on_delivery)
//                 -> ReplicaNode<object::Value>   (fifo_chain)
//
// plus what runs beside it: the process-global flight recorder, the
// metrics registry (with the flight collector), the optional tracer, the
// metrics HTTP endpoint, the 20 ms tick (signal poll, then
// Options::on_tick) and 250 ms snapshot timers, history recording, and
// the report / progress / metrics / trace / history writers. A binary is
// a shell over it: it contributes a workload through the callbacks and
// its own report and progress fields. See DESIGN.md, "One node runtime".
//
// Signals (handlers installed by the constructor):
//   SIGTERM  finish(): final report, metrics page, trace and history,
//            then the loop stops;
//   SIGUSR2  metrics page to --metrics-snapshot (stderr without one) and
//            a flight-ring dump.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "check/invariant_checker.h"
#include "check/violation.h"
#include "fault/chaos_transport.h"
#include "group/group_view.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/value.h"
#include "obs/flight_recorder.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replica/replica_node.h"
#include "transport/batching.h"
#include "transport/reliable.h"
#include "util/flags.h"

namespace cbc::runtime {

/// Ordered key=value lines of a report or progress file.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// Atomically replaces `path` with `key=value` lines (a harness polling
/// it never reads a partial file); a failed write is reported on stderr.
/// Empty `path` writes nothing.
void write_fields(const std::string& path, const Fields& fields);

/// 16 lowercase hex digits, the report format of digests.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// What the runtime reads from the command line. parse_flag() accepts
/// all of it but --trace, which only cbc_node offers.
struct Flags {
  std::string report_path;
  std::string progress_path;
  std::string record_history_path;  ///< SiteHistory written at finish()
  std::string fault_plan_path;
  std::string flight_path;  ///< file-backed flight ring (survives SIGKILL)
  std::string metrics_snapshot_path;
  std::string trace_path;  ///< Chrome trace JSON written at finish()
  int metrics_port = -1;   ///< -1 = no endpoint; 0 = ephemeral
  bool force_poll = false;

  [[nodiscard]] bool observability() const {
    return metrics_port >= 0 || !metrics_snapshot_path.empty() ||
           !trace_path.empty();
  }
};

/// Consumes the cursor's current flag when it is one of --report,
/// --progress, --record-history, --fault-plan, --flight, --metrics-port,
/// --metrics-snapshot or --force-poll; false for any other flag.
bool parse_flag(FlagCursor& cursor, Flags& flags);

/// Usage lines for the flags parse_flag() accepts.
extern const char* const kFlagsUsage;

class NodeRuntime {
 public:
  using Replica = ReplicaNode<object::Value>;

  struct Options {
    Flags flags;
    /// Diagnostics prefix, trace process name and default flight-dump
    /// stem, e.g. "cbc_node0" or "cbc_kv_s1_r2".
    std::string name;
    /// Flight-ring role tag (cbc_flight prints 0 as node, 1 as kv).
    std::uint32_t role = 0;
    net::ClusterConfig config;
    NodeId id = kNoNode;
    /// The group: config entries outside it stay addressable (a kv
    /// shard's router slot) but never join the causal or total order.
    std::vector<NodeId> members;
    bool total_order = false;  ///< ASendMember instead of OSendMember
    object::CatalogEntry entry;
    /// Recorded histories, the flight ring and the trace name member m
    /// as origin_base + m, so several groups share one id space.
    NodeId origin_base = 0;
    std::vector<std::pair<std::string, std::string>> labels;
    /// Member reliability settings (oob handler, failure detector); the
    /// runtime switches reliability on and attaches the metrics hooks.
    ReliableEndpoint::Options reliability;
    /// Every delivery, after the checker and before the replica applies
    /// it (loop thread).
    std::function<void(const Delivery&)> on_delivery;
    /// Every applied operation with its response, after history
    /// recording (loop thread).
    Replica::ApplyObserverFn on_apply;
    std::function<void()> on_tick;        ///< every 20 ms
    std::function<Fields()> report;       ///< shell's report fields
    std::function<Fields()> progress;     ///< shell's progress fields
  };

  explicit NodeRuntime(Options options);
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Arms the tick and snapshot timers and runs the loop until finish().
  int run();

  /// Final report, metrics page, trace and history; stops the loop.
  void finish();

  /// Writes the report (shell fields, then the runtime's); once per
  /// process — later calls do nothing.
  void write_report();
  void write_progress();
  /// Rewrites the --metrics-snapshot page (no-op without one).
  void dump_metrics();

  /// Appends an op to the recorded history (no-op unless recording).
  void record(check::HistoryOp op);

  /// Observability sinks for one component; empty when observability is
  /// off, so every instrumented site reduces to one pointer test.
  [[nodiscard]] obs::Hooks hooks(std::string prefix);

  [[nodiscard]] net::EventLoop& loop() { return loop_; }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] Replica& replica() { return *replica_; }
  [[nodiscard]] check::InvariantChecker& checker() { return *checker_; }
  [[nodiscard]] const net::ClusterConfig& config() const { return config_; }
  [[nodiscard]] const GroupView& view() const { return view_; }
  [[nodiscard]] bool stopping() const { return stopping_; }
  [[nodiscard]] bool report_written() const { return report_written_; }

 private:
  /// Owns the flight ring and keeps it installed as the process-global
  /// recorder for exactly the runtime's lifetime.
  struct InstalledFlight {
    explicit InstalledFlight(const obs::FlightRecorder::Options& options);
    ~InstalledFlight();
    InstalledFlight(const InstalledFlight&) = delete;
    InstalledFlight& operator=(const InstalledFlight&) = delete;
    obs::FlightRecorder recorder;
  };

  [[nodiscard]] obs::FlightRecorder::Options flight_options() const;
  [[nodiscard]] std::unique_ptr<obs::Tracer> make_tracer() const;
  [[nodiscard]] std::unique_ptr<fault::ChaosTransport> make_chaos();
  [[nodiscard]] std::unique_ptr<BroadcastMember> make_member();
  void on_applied(const Delivery& delivery,
                  const std::vector<std::uint8_t>& response);
  void tick();
  void arm_tick();
  void arm_snapshot();
  void write_trace();
  void write_history();
  [[nodiscard]] std::string metrics_port() const;

  Options options_;
  // The flight ring precedes every component that records into it and
  // the registry and tracer precede every component that registers
  // collectors or emits trace events, so all three are destroyed last.
  InstalledFlight flight_;
  net::ClusterConfig config_;
  net::EventLoop loop_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::CollectorHandle flight_collector_;
  net::UdpTransport udp_;
  std::unique_ptr<fault::ChaosTransport> chaos_;  // batching_ rides it
  BatchingTransport batching_;
  GroupView view_;
  std::shared_ptr<check::ViolationLog> log_;
  check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  std::unique_ptr<Replica> replica_;
  std::unique_ptr<net::MetricsHttpServer> metrics_http_;
  std::vector<check::HistoryOp> history_;
  bool report_written_ = false;
  bool stopping_ = false;
};

}  // namespace cbc::runtime
