#include "runtime/node_runtime.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "causal/osend.h"
#include "fault/fault_plan.h"
#include "object/sequential_spec.h"
#include "obs/instrument_layer.h"
#include "stack/protocol_layer.h"
#include "total/asend.h"
#include "util/atomic_file.h"
#include "util/ensure.h"

namespace cbc::runtime {

namespace {

volatile std::sig_atomic_t g_terminate_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigterm(int) { g_terminate_requested = 1; }
void on_sigusr2(int) { g_dump_requested = 1; }

/// Transparent layer between the checker and the replica that lets the
/// shell observe deliveries (round markers, departures, sync ops).
class DeliveryTap final : public ProtocolLayer {
 public:
  using InspectFn = std::function<void(const Delivery&)>;

  DeliveryTap(std::unique_ptr<BroadcastMember> lower, InspectFn inspect)
      : ProtocolLayer(std::move(lower)), inspect_(std::move(inspect)) {}

 protected:
  void on_lower_delivery(const Delivery& delivery) override {
    if (inspect_) {
      inspect_(delivery);
    }
    deliver_up(delivery);
  }

 private:
  InspectFn inspect_;
};

net::UdpTransport::Options udp_options(NodeId id, obs::Hooks obs) {
  net::UdpTransport::Options options;
  options.local_ids = {id};
  options.obs = std::move(obs);
  return options;
}

BatchingTransport::Options batching_options(obs::Hooks obs) {
  BatchingTransport::Options options;
  options.obs = std::move(obs);
  return options;
}

/// Where a postmortem of this process would read the flight ring.
std::string flight_file() {
  obs::FlightRecorder* recorder = obs::flight_recorder();
  if (recorder == nullptr) {
    return "none";
  }
  return recorder->file_backed() ? recorder->options().path
                                 : recorder->options().dump_path;
}

}  // namespace

void write_fields(const std::string& path, const Fields& fields) {
  if (path.empty()) {
    return;
  }
  std::string text;
  for (const auto& [key, value] : fields) {
    text += key;
    text += '=';
    text += value;
    text += '\n';
  }
  if (!write_file_atomic(path, text)) {
    std::cerr << "cannot write " << path << "\n";
  }
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

const char* const kFlagsUsage =
    "  --report FILE     write the final key=value report here\n"
    "  --progress FILE   rewrite progress here (for harnesses)\n"
    "  --record-history FILE  write this member's applied-operation\n"
    "                    history here at exit (cbc_check input)\n"
    "  --fault-plan FILE deterministic fault injection plan\n"
    "  --flight FILE     back the always-on flight ring with FILE\n"
    "                    (survives SIGKILL; decode with cbc_flight)\n"
    "  --metrics-port P  serve Prometheus plaintext on 127.0.0.1:P\n"
    "                    (0 = ephemeral; the report names the port)\n"
    "  --metrics-snapshot FILE  rewrite the metrics page here "
    "periodically\n"
    "  --force-poll      use the poll event-loop backend\n";

bool parse_flag(FlagCursor& cursor, Flags& flags) {
  const std::string& flag = cursor.flag();
  if (flag == "--report") {
    flags.report_path = cursor.value();
  } else if (flag == "--progress") {
    flags.progress_path = cursor.value();
  } else if (flag == "--record-history") {
    flags.record_history_path = cursor.value();
  } else if (flag == "--fault-plan") {
    flags.fault_plan_path = cursor.value();
  } else if (flag == "--flight") {
    flags.flight_path = cursor.value();
  } else if (flag == "--metrics-port") {
    flags.metrics_port = static_cast<int>(cursor.number(0, 65535));
  } else if (flag == "--metrics-snapshot") {
    flags.metrics_snapshot_path = cursor.value();
  } else if (flag == "--force-poll") {
    flags.force_poll = true;
  } else {
    return false;
  }
  return true;
}

NodeRuntime::InstalledFlight::InstalledFlight(
    const obs::FlightRecorder::Options& options)
    : recorder(options) {
  obs::install_flight_recorder(&recorder);
}

NodeRuntime::InstalledFlight::~InstalledFlight() {
  obs::install_flight_recorder(nullptr);
}

NodeRuntime::NodeRuntime(Options options)
    : options_(std::move(options)),
      flight_(flight_options()),
      config_(std::move(options_.config)),
      loop_(net::EventLoop::Options{.force_poll = options_.flags.force_poll,
                                    .wheel = {}}),
      tracer_(make_tracer()),
      udp_(loop_, config_, udp_options(options_.id, hooks("udp"))),
      chaos_(make_chaos()),
      batching_(chaos_ != nullptr ? static_cast<Transport&>(*chaos_)
                                  : static_cast<Transport&>(udp_),
                batching_options(hooks("batch"))),
      view_(1, options_.members),
      log_(std::make_shared<check::ViolationLog>()) {
  struct sigaction term {};
  term.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &term, nullptr);
  struct sigaction usr2 {};
  usr2.sa_handler = on_sigusr2;
  ::sigaction(SIGUSR2, &usr2, nullptr);

  // Every scrape line carries the labels (a kv replica's shard and
  // rank), so one Prometheus target set tells the processes apart.
  registry_.set_default_labels(options_.labels);
  // The flight ring is process-global and always on; export its
  // occupancy whenever anything scrapes this registry.
  flight_collector_ =
      registry_.register_collector([](obs::CollectorSink& sink) {
        if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
          sink.counter("flight.records", recorder->total_recorded());
          sink.gauge("flight.capacity",
                     static_cast<double>(recorder->capacity()));
        }
      });

  // The commutativity table every member derives from the same spec.
  const CommutativitySpec derived =
      object::derive_commutativity(options_.entry.spec());

  check::InvariantChecker::Options check_options;
  check_options.obs = hooks("check");
  check_options.expect_total_order = options_.total_order;
  check_options.stable_spec = derived;
  // A departure nop races the in-flight sync and can land in different
  // stable cycles at different members. Nops are state-inert, so the
  // digest exempts the whole kind and covers exactly the state-affecting
  // history, which IS deterministic.
  check_options.digest_exempt_kinds = {"nop"};
  auto checker = std::make_unique<check::InvariantChecker>(
      make_member(), log_, check_options);
  checker_ = checker.get();

  replica_ = std::make_unique<Replica>(
      std::make_unique<DeliveryTap>(std::move(checker), options_.on_delivery),
      derived, FrontEndManager::Options{.fifo_chain = true},
      object::Value(options_.entry.make()));
  replica_->set_apply_observer(
      [this](const Delivery& delivery,
             const std::vector<std::uint8_t>& response) {
        on_applied(delivery, response);
      });

  if (options_.flags.metrics_port >= 0) {
    net::MetricsHttpServer::Options http_options;
    http_options.port =
        static_cast<std::uint16_t>(options_.flags.metrics_port);
    metrics_http_ = std::make_unique<net::MetricsHttpServer>(loop_, registry_,
                                                             http_options);
  }
}

obs::FlightRecorder::Options NodeRuntime::flight_options() const {
  // With --flight the ring lives in a file mapping and survives SIGKILL;
  // otherwise it is in memory and dumped next to the report on crash
  // points, SIGUSR2 and invariant violations.
  obs::FlightRecorder::Options flight;
  flight.node_id = options_.origin_base + options_.id;
  flight.role = options_.role;
  flight.path = options_.flags.flight_path;
  if (flight.path.empty()) {
    flight.dump_path = !options_.flags.report_path.empty()
                           ? options_.flags.report_path + ".flight"
                           : options_.name + ".flight";
  }
  return flight;
}

std::unique_ptr<obs::Tracer> NodeRuntime::make_tracer() const {
  if (options_.flags.trace_path.empty()) {
    return nullptr;
  }
  obs::Tracer::Options tracer;
  tracer.pid = options_.origin_base + options_.id;
  tracer.process_name =
      options_.name + (options_.total_order ? " (total)" : " (causal)");
  return std::make_unique<obs::Tracer>(std::move(tracer));
}

std::unique_ptr<fault::ChaosTransport> NodeRuntime::make_chaos() {
  if (options_.flags.fault_plan_path.empty()) {
    return nullptr;
  }
  fault::ChaosTransport::Options chaos;
  chaos.plan = fault::FaultPlan::load(options_.flags.fault_plan_path);
  chaos.local_node = options_.id;
  // A scripted crash is a SIGKILL equivalent: no destructors, no report.
  // The flight ring is the only thing persisted (dump() is async-signal-
  // safe; for a file-backed ring it just flushes what already survives).
  chaos.on_crash = [] {
    if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
      recorder->dump();
    }
    std::_Exit(137);
  };
  chaos.obs = hooks("fault");
  return std::make_unique<fault::ChaosTransport>(udp_, std::move(chaos));
}

std::unique_ptr<BroadcastMember> NodeRuntime::make_member() {
  // Registered on the batching decorator, so every frame (data, acks,
  // retransmissions) rides the batch framing.
  ReliableEndpoint::Options reliability = options_.reliability;
  reliability.enabled = true;
  reliability.obs = hooks("reliable");
  std::unique_ptr<BroadcastMember> member;
  if (options_.total_order) {
    ASendMember::Options asend;
    asend.reliability = std::move(reliability);
    asend.obs = hooks("asend");
    member = std::make_unique<cbc::ASendMember>(
        batching_, view_, [](const Delivery&) {}, asend);
  } else {
    OSendMember::Options osend;
    osend.reliability = std::move(reliability);
    osend.obs = hooks("osend");
    member = std::make_unique<cbc::OSendMember>(
        batching_, view_, [](const Delivery&) {}, osend);
  }
  if (options_.flags.observability()) {
    member = std::make_unique<obs::InstrumentationLayer>(
        std::move(member), obs::InstrumentationLayer::Options{hooks("stack")});
  }
  return member;
}

obs::Hooks NodeRuntime::hooks(std::string prefix) {
  if (!options_.flags.observability()) {
    return {};
  }
  return {&registry_, tracer_.get(), std::move(prefix)};
}

void NodeRuntime::on_applied(const Delivery& delivery,
                             const std::vector<std::uint8_t>& response) {
  if (!options_.flags.record_history_path.empty()) {
    const auto remap = [this](const MessageId& id) {
      return MessageId{options_.origin_base + id.sender, id.seq};
    };
    check::HistoryOp op;
    op.id = remap(delivery.id);
    op.origin = options_.origin_base + delivery.sender;
    op.label = delivery.label();
    const auto payload = delivery.payload();
    op.args.assign(payload.begin(), payload.end());
    for (const MessageId& dep : delivery.deps().ids()) {
      op.deps.push_back(remap(dep));
    }
    op.response = response;
    history_.push_back(std::move(op));
  }
  if (options_.on_apply) {
    options_.on_apply(delivery, response);
  }
}

void NodeRuntime::record(check::HistoryOp op) {
  if (!options_.flags.record_history_path.empty()) {
    history_.push_back(std::move(op));
  }
}

int NodeRuntime::run() {
  arm_tick();
  arm_snapshot();
  loop_.run();
  return 0;
}

void NodeRuntime::arm_tick() {
  // Liveness backstop + signal poll: the handlers only set flags; this
  // tick turns them into loop-thread actions.
  loop_.schedule(20'000, [this] {
    tick();
    if (!stopping_) {
      arm_tick();
    }
  });
}

void NodeRuntime::arm_snapshot() {
  if (options_.flags.metrics_snapshot_path.empty()) {
    return;
  }
  loop_.schedule(250'000, [this] {
    dump_metrics();
    if (!stopping_) {
      arm_snapshot();
    }
  });
}

void NodeRuntime::tick() {
  if (stopping_) {
    return;
  }
  if (g_terminate_requested != 0) {
    finish();
    return;
  }
  if (g_dump_requested != 0) {
    g_dump_requested = 0;
    if (options_.flags.observability() &&
        options_.flags.metrics_snapshot_path.empty()) {
      std::cerr << registry_.render_prometheus();
    }
    dump_metrics();
    if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
      recorder->dump();
    }
  }
  if (options_.on_tick) {
    options_.on_tick();
  }
}

void NodeRuntime::finish() {
  write_report();
  dump_metrics();
  write_trace();
  write_history();
  stopping_ = true;
  loop_.stop();
}

void NodeRuntime::dump_metrics() {
  const std::string& path = options_.flags.metrics_snapshot_path;
  if (!path.empty() &&
      !write_file_atomic(path, registry_.render_prometheus())) {
    std::cerr << options_.name << ": cannot write metrics to " << path << "\n";
  }
}

void NodeRuntime::write_trace() {
  if (tracer_ != nullptr && !tracer_->write_file(options_.flags.trace_path)) {
    std::cerr << options_.name << ": cannot write trace to "
              << options_.flags.trace_path << "\n";
  }
}

void NodeRuntime::write_history() {
  if (options_.flags.record_history_path.empty()) {
    return;
  }
  check::SiteHistory history;
  history.object = options_.entry.name;
  history.site = options_.origin_base + options_.id;
  history.ops = std::move(history_);
  try {
    history.save(options_.flags.record_history_path);
  } catch (const InvalidArgument& error) {
    std::cerr << options_.name << ": cannot write history: " << error.what()
              << "\n";
  }
}

std::string NodeRuntime::metrics_port() const {
  return metrics_http_ != nullptr ? std::to_string(metrics_http_->port())
                                  : "none";
}

void NodeRuntime::write_progress() {
  // metrics_port rides along so fleet tools (cbc_top) can discover live
  // scrape endpoints before any final report exists.
  Fields fields = options_.progress ? options_.progress() : Fields{};
  fields.emplace_back("delivered",
                      std::to_string(checker_->delivered_sequence().size()));
  fields.emplace_back("metrics_port", metrics_port());
  write_fields(options_.flags.progress_path, fields);
}

void NodeRuntime::write_report() {
  if (report_written_) {
    return;
  }
  report_written_ = true;
  const auto& digests = checker_->stable_digests();
  const net::UdpTransport::Stats udp = udp_.stats();
  Fields fields = options_.report ? options_.report() : Fields{};
  fields.insert(
      fields.end(),
      {{"object", options_.entry.name},
       {"delivered", std::to_string(checker_->delivered_sequence().size())},
       // The digest chain folds every previous stable point, so
       // (digest_count, digest) summarizes the whole agreed history.
       {"digest_count", std::to_string(digests.size())},
       {"digest", digests.empty() ? "0" : hex64(digests.back())},
       {"violations", std::to_string(log_->size())},
       {"datagrams_sent", std::to_string(udp.datagrams_sent)},
       {"datagrams_received", std::to_string(udp.datagrams_received)},
       {"backend", loop_.uses_epoll() ? "epoll" : "poll"},
       {"metrics_port", metrics_port()},
       {"flight", flight_file()}});
  write_fields(options_.flags.report_path, fields);
  if (!log_->empty()) {
    std::cerr << options_.name << ": INVARIANT VIOLATIONS:\n"
              << log_->report();
  }
}

}  // namespace cbc::runtime
