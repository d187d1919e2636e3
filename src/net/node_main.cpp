// cbc_node — one member of a replicated-object group over real UDP.
//
// The member itself is the node runtime (src/runtime/node_runtime.h;
// DESIGN.md, "One node runtime"). This shell adds the round workload,
// graceful departure, and checkpoint recovery with its rejoin/admission
// protocol. Run without arguments for the flag list; docs/OBSERVABILITY.md
// and docs/ROBUSTNESS.md describe the observability and recovery flags.
//
// The replicated object is any catalog entry (--object, default counter):
// its derived commutativity table drives the access protocol, its
// workload hook generates the round traffic, and its serialize hook
// feeds digests, checkpoints and state transfer.
//
// The workload is round-structured so that stable-point digests are
// deterministic across members even though UDP reorders freely:
//   - every member submits `ops_per_round` FIFO-chained commutative ops
//     (the object's catalog workload hook), then a commutative `nop`
//     round marker (FIFO-chained after them);
//   - the leader (node 0) submits the round's closing sync op (the
//     object's catalog sync op — `rd` for the counter) only after
//     delivering every live member's marker — so the sync message's
//     Occurs_After set covers all of the round's commutative traffic;
//   - members start round r+1 only after delivering sync r.
// Cycle membership is therefore causally forced: any interleaving the
// network produces yields the same digest chain at every member. The
// total discipline (ASend) runs the same rounds over its round merge.
//
// SIGUSR1 is a graceful departure: broadcast a departing `nop` (which the
// FIFO chain orders after everything this member sent), stop submitting,
// keep serving retransmissions until SIGTERM. SIGTERM and SIGUSR2 act as
// in the runtime. --observer joins without submitting anything.
//
// With --checkpoint every stable point persists a Checkpoint, served to
// recovering peers over the reliable layer's out-of-band frames. A
// SIGKILLed member relaunched with --recover fetches a live peer's
// checkpoint before its stack exists, restores replica, checker and
// ordering state from it, and re-enters the rounds once the leader admits
// it. --quiesce-at-round K stops submitting after round K and writes
// quiesced=1 once every sent frame is acknowledged: the safe point for a
// harness to SIGKILL this member.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/install.h"
#include "fault/checkpoint.h"
#include "fault/state_transfer.h"
#include "net/cluster_config.h"
#include "object/catalog.h"
#include "object/replicated_object.h"
#include "obs/metrics.h"
#include "runtime/node_runtime.h"
#include "util/ensure.h"
#include "util/flags.h"
#include "util/serde.h"

namespace {

using cbc::runtime::Fields;
using cbc::runtime::NodeRuntime;

volatile std::sig_atomic_t g_depart_requested = 0;

void on_sigusr1(int) { g_depart_requested = 1; }

struct NodeArgs {
  cbc::runtime::Flags flags;
  std::string config_path;
  cbc::NodeId id = cbc::kNoNode;
  std::string object = "counter";  ///< catalog name of the replicated object
  std::uint64_t rounds = 10;
  std::uint64_t ops_per_round = 20;
  std::string discipline = "causal";  // or "total"
  bool observer = false;

  // Robustness knobs (see the file comment).
  std::string checkpoint_path;
  bool recover = false;
  cbc::NodeId transfer_from = cbc::kNoNode;
  std::int64_t heartbeat_ms = 0;
  std::int64_t suspect_timeout_ms = 0;
  std::int64_t quiesce_at_round = -1;
};

void usage() {
  std::cerr
      << "usage: cbc_node --config FILE --id N [options]\n"
         "  --config FILE     cluster membership file (id host:port lines)\n"
         "  --id N            this member's id within the config\n"
         "  --object NAME     replicated object from the catalog (counter,\n"
         "                    registry, document, card_game, set, queue;\n"
         "                    default counter)\n"
         "  --rounds R        workload rounds (default 10)\n"
         "  --ops K           commutative ops per member per round "
         "(default 20)\n"
         "  --discipline D    causal (OSend, default) or total (ASend)\n"
         "  --observer        join without submitting (restarted member)\n"
         "  --trace FILE      write Chrome trace-event JSON here at "
         "SIGTERM\n"
      << cbc::runtime::kFlagsUsage
      << "  --checkpoint FILE persist a checkpoint at every stable point\n"
         "  --recover         restore from a live peer's checkpoint and "
         "rejoin\n"
         "  --transfer-from N fetch the checkpoint from member N\n"
         "  --suspect-timeout-ms N  suspect peers silent for N ms\n"
         "  --heartbeat-ms N  heartbeat period on idle links\n"
         "  --quiesce-at-round K  stop submitting after round K; write\n"
         "                    quiesced=1 when all sent frames are acked\n";
}

NodeArgs parse_args(int argc, char** argv) {
  NodeArgs args;
  cbc::FlagCursor cursor("cbc_node", argc, argv);
  while (cursor.next()) {
    if (cbc::runtime::parse_flag(cursor, args.flags)) {
      continue;
    }
    const std::string& flag = cursor.flag();
    if (flag == "--config") {
      args.config_path = cursor.value();
    } else if (flag == "--id") {
      args.id = cursor.node_id();
    } else if (flag == "--object") {
      args.object = cursor.value();
    } else if (flag == "--rounds") {
      args.rounds = cursor.count();
    } else if (flag == "--ops") {
      args.ops_per_round = cursor.count();
    } else if (flag == "--discipline") {
      args.discipline = cursor.value();
    } else if (flag == "--observer") {
      args.observer = true;
    } else if (flag == "--trace") {
      args.flags.trace_path = cursor.value();
    } else if (flag == "--checkpoint") {
      args.checkpoint_path = cursor.value();
    } else if (flag == "--recover") {
      args.recover = true;
    } else if (flag == "--transfer-from") {
      args.transfer_from = cursor.node_id();
    } else if (flag == "--suspect-timeout-ms") {
      args.suspect_timeout_ms = cursor.millis(1);
    } else if (flag == "--heartbeat-ms") {
      args.heartbeat_ms = cursor.millis(1);
    } else if (flag == "--quiesce-at-round") {
      args.quiesce_at_round = static_cast<std::int64_t>(cursor.count());
    } else {
      cursor.unknown();
    }
  }
  cbc::require(!args.config_path.empty(), "cbc_node: --config is required");
  cbc::require(args.id != cbc::kNoNode, "cbc_node: --id is required");
  cbc::require(args.discipline == "causal" || args.discipline == "total",
               "cbc_node: --discipline must be causal or total");
  if (args.recover || !args.checkpoint_path.empty() ||
      args.quiesce_at_round >= 0) {
    cbc::require(args.discipline == "causal",
                 "cbc_node: --checkpoint, --recover and --quiesce-at-round "
                 "require the causal discipline");
  }
  if (args.recover) {
    cbc::require(!args.observer, "cbc_node: --recover excludes --observer");
    cbc::require(args.id != 0,
                 "cbc_node: leader recovery is not supported (ROADMAP)");
  }
  return args;
}

cbc::object::CatalogEntry find_object(const std::string& name) {
  const auto entry = cbc::object::Catalog::instance().find(name);
  cbc::require(entry.has_value(),
               "cbc_node: unknown --object '" + name + "'");
  return *entry;
}

/// Checkpoints are captured at the sync's delivery tap, before the
/// replica applies it — only sound when the sync op is state-inert.
/// Probe that instead of trusting a label.
bool sync_is_state_inert(const cbc::object::CatalogEntry& entry) {
  const std::unique_ptr<cbc::object::ReplicatedObject> probe = entry.make();
  const std::unique_ptr<cbc::object::ReplicatedObject> before =
      probe->clone();
  cbc::Reader sync_args(entry.sync_op.args);
  probe->apply(entry.sync_op.kind, sync_args);
  return probe->equals(*before);
}

/// One group member: the runtime plus the round workload and recovery.
class Node {
 public:
  Node(const NodeArgs& args, cbc::net::ClusterConfig config,
       std::optional<cbc::fault::Checkpoint> recovered)
      : args_(args),
        entry_(find_object(args.object)),
        recovered_(std::move(recovered)),
        runtime_(runtime_options(std::move(config))),
        marker_count_(runtime_.config().size(), 0),
        departed_(runtime_.config().size(), false) {
    cbc::require(sync_is_state_inert(entry_) || !checkpoints_enabled(),
                 "cbc_node: --checkpoint/--recover require a state-inert "
                 "sync op; object '" + args_.object + "' closes rounds "
                 "with mutating '" + entry_.sync_op.kind + "'");
    if (args_.flags.observability()) {
      cbc::obs::MetricsRegistry& registry = runtime_.registry();
      recovery_checkpoints_ = &registry.counter("recovery.checkpoints_written");
      recovery_transfers_ = &registry.counter("recovery.transfers_served");
      recovery_restored_ = &registry.gauge("recovery.restored_cycles");
    }
    if (checkpoints_enabled() && !args_.observer) {
      // Start acknowledging nothing: a frame is only ever acked once a
      // flushed checkpoint covers it, so senders retain (and a restored
      // incarnation can recover) everything in between stable points.
      apply_ack_ceilings(cbc::VectorClock(runtime_.view().size()));
    }
    if (recovered_.has_value()) {
      restore_from_checkpoint();
    }
  }

  int run() {
    runtime_.loop().post([this] { pump(); });
    return runtime_.run();
  }

 private:
  NodeRuntime::Options runtime_options(cbc::net::ClusterConfig config) {
    NodeRuntime::Options options;
    options.flags = args_.flags;
    options.name = "cbc_node" + std::to_string(args_.id);
    options.members = config.to_view();
    options.config = std::move(config);
    options.id = args_.id;
    options.total_order = args_.discipline == "total";
    options.entry = entry_;
    if (args_.suspect_timeout_ms > 0) {
      options.reliability.suspect_after_us = args_.suspect_timeout_ms * 1000;
      options.reliability.heartbeat_interval_us = args_.heartbeat_ms * 1000;
      options.reliability.on_liveness = [this](cbc::NodeId peer, bool alive) {
        on_liveness(peer, alive);
      };
    }
    if (!options.total_order) {
      options.reliability.oob_handler =
          [this](cbc::NodeId from, std::span<const std::uint8_t> payload) {
            on_oob(from, payload);
          };
    }
    options.on_delivery = [this](const cbc::Delivery& delivery) {
      on_delivery(delivery);
    };
    options.on_tick = [this] { pump(); };
    options.report = [this] { return report_fields(); };
    options.progress = [this] { return progress_fields(); };
    return options;
  }

  [[nodiscard]] bool is_leader() const {
    return args_.id == 0 && !args_.observer;
  }

  [[nodiscard]] cbc::OSendMember& osend() {
    return runtime_.replica().osend();
  }

  /// Loop thread (reliability timers run on the event loop). The leader
  /// treats a suspected member like a departed one for round closure —
  /// rounds keep closing across a crash — and reverses that the moment
  /// the peer is heard again (or explicitly re-admitted).
  void on_liveness(cbc::NodeId peer, bool alive) {
    if (is_leader() && peer < departed_.size()) {
      departed_[peer] = !alive;
    }
    runtime_.loop().post([this] { pump(); });
  }

  /// Serves a recovering peer's StateRequest with the latest stable-point
  /// checkpoint, over the reliable layer's out-of-band frames.
  void on_oob(cbc::NodeId from, std::span<const std::uint8_t> payload) {
    if (!cbc::fault::parse_state_request(payload).has_value() ||
        !latest_checkpoint_.has_value()) {
      return;
    }
    osend().send_oob(from,
                     cbc::fault::encode_state_response(*latest_checkpoint_));
    if (recovery_transfers_ != nullptr) {
      recovery_transfers_->inc();
    }
  }

  /// Rebuilds local state from a live peer's transferred checkpoint, then
  /// marks this member as awaiting the leader's admission. Stable-point
  /// agreement makes the peer's chain interchangeable with our own lost
  /// one — asserted against any pre-crash checkpoint left on disk.
  void restore_from_checkpoint() {
    std::optional<cbc::fault::Checkpoint> own;
    if (!args_.checkpoint_path.empty()) {
      try {
        own = cbc::fault::Checkpoint::load(args_.checkpoint_path);
      } catch (const cbc::InvalidArgument&) {
        // No readable pre-crash checkpoint — nothing to cross-check.
      }
    }
    if (own.has_value()) {
      const std::size_t common = std::min(own->stable_digests.size(),
                                          recovered_->stable_digests.size());
      for (std::size_t c = 0; c < common; ++c) {
        cbc::require(own->stable_digests[c] == recovered_->stable_digests[c],
                     "recovery: stable digest chain diverges from the peer "
                     "at cycle " + std::to_string(c + 1));
      }
      // The pre-crash file can be AHEAD of the transferred snapshot (the
      // peer may not have closed the cycle we flushed last). Acks were
      // capped at our flushed frontier, so senders have pruned everything
      // the fresher chain covers — restore from whichever chain is longer
      // or the pruned prefix can never be retransmitted.
      if (own->cycles > recovered_->cycles) {
        recovered_ = std::move(own);
      }
    }
    const cbc::fault::Checkpoint& snapshot = *recovered_;
    const cbc::GroupView& view = runtime_.view();
    cbc::require(snapshot.frontier.width() == view.size(),
                 "recovery: checkpoint frontier width does not match the "
                 "cluster view");
    std::map<cbc::NodeId, cbc::SeqNo> floors;
    for (std::size_t rank = 0; rank < view.size(); ++rank) {
      floors[view.member_at(rank)] =
          snapshot.frontier.at(static_cast<cbc::NodeId>(rank));
    }
    runtime_.checker().restore(snapshot.stable_digests, std::move(floors));
    cbc::Reader state_reader(snapshot.app_state);
    runtime_.replica().restore_state(
        cbc::object::Value::decode(state_reader));
    // Baseline adoption also fast-forwards our send seqs above the
    // frontier's record of our own pre-crash broadcasts, so peers do not
    // discard our first new messages as duplicates.
    osend().adopt_baseline(snapshot.frontier);
    runtime_.replica().front_end().restore(snapshot.last_sync, {});
    syncs_delivered_ = snapshot.cycles;
    current_round_ = static_cast<std::int64_t>(snapshot.cycles) - 1;
    awaiting_admission_ = true;
    latest_checkpoint_ = snapshot;
    apply_ack_ceilings(snapshot.frontier);
    if (recovery_restored_ != nullptr) {
      recovery_restored_->set(static_cast<std::int64_t>(snapshot.cycles));
    }
  }

  /// Sets the per-peer ack ceilings to a persisted checkpoint's frontier:
  /// the reliability layer may acknowledge exactly what that checkpoint
  /// covers (see OSendMember::set_ack_ceiling).
  void apply_ack_ceilings(const cbc::VectorClock& frontier) {
    const cbc::GroupView& view = runtime_.view();
    for (std::size_t rank = 0; rank < view.size(); ++rank) {
      const cbc::NodeId member = view.member_at(rank);
      if (member != args_.id) {
        osend().set_ack_ceiling(
            member, frontier.at(static_cast<cbc::NodeId>(rank)));
      }
    }
  }

  /// Runs on the loop thread only. Inspects deliveries for workload
  /// control; the checker has already processed the message when the tap
  /// fires (the tap sits above it), the replica has not yet applied it.
  void on_delivery(const cbc::Delivery& delivery) {
    const std::string kind =
        cbc::CommutativitySpec::kind_of(delivery.label());
    if (kind == "nop") {
      std::uint64_t tag = 0;
      try {
        cbc::Reader reader(delivery.payload());
        tag = reader.u64();
      } catch (const cbc::SerdeError&) {
        return;  // malformed marker payload; counted upstream
      }
      // Low two bits select the in-band marker protocol:
      //   0 round marker   (round << 2)
      //   1 departure      (((round+1) << 2) | 1)
      //   2 rejoin request ((proposed << 12) | (id << 2) | 2)
      //   3 admission      ((granted << 12) | (id << 2) | 3)
      switch (tag & 3) {
        case 0:
          marker_count_[delivery.sender] += 1;
          break;
        case 1:
          departed_[delivery.sender] = true;
          break;
        case 2:
          if (is_leader()) {
            grant_admission(tag);
          }
          break;
        default:
          on_admit(tag);
          break;
      }
    } else if (kind == entry_.sync_op.kind) {
      syncs_delivered_ += 1;
      if (checkpoints_enabled()) {
        capture_checkpoint(delivery);
      }
    }
    runtime_.loop().post([this] { pump(); });
  }

  [[nodiscard]] bool checkpoints_enabled() const {
    return args_.discipline == "causal" &&
           (!args_.checkpoint_path.empty() || args_.recover);
  }

  /// Runs at the sync's delivery tap, where the checkpoint is consistent
  /// by construction: the checker has folded this sync into the digest
  /// chain, the ordering layer's delivered prefix covers exactly the
  /// closed cycles (every next-cycle op causally follows this sync, so
  /// none can have been delivered yet), and the replica — which applies
  /// *after* the tap, but the sync op is state-inert (probed at boot) —
  /// holds the agreed stable-point state. The disk write is deferred to
  /// the next pump.
  void capture_checkpoint(const cbc::Delivery& sync) {
    cbc::fault::Checkpoint snapshot;
    snapshot.node = args_.id;
    snapshot.stable_digests = runtime_.checker().stable_digests();
    snapshot.cycles = snapshot.stable_digests.size();
    snapshot.last_sync = sync.id;
    snapshot.frontier = osend().delivered_prefix();
    cbc::Writer writer;
    runtime_.replica().state().encode(writer);
    snapshot.app_state = writer.take();
    latest_checkpoint_ = std::move(snapshot);
    checkpoint_dirty_ = true;
  }

  void flush_checkpoint() {
    if (!checkpoint_dirty_) {
      return;
    }
    checkpoint_dirty_ = false;
    if (!args_.checkpoint_path.empty()) {
      latest_checkpoint_->save(args_.checkpoint_path);
    }
    apply_ack_ceilings(latest_checkpoint_->frontier);
    if (recovery_checkpoints_ != nullptr) {
      recovery_checkpoints_->inc();
    }
  }

  /// Leader side of the rejoin handshake. The granted round is clamped
  /// above every sync already submitted, and the recovering member is
  /// credited with markers for all skipped rounds — round closure then
  /// never waits on history it cannot replay. The admission nop is
  /// commutative: the next sync's Occurs_After set covers it, so the
  /// recovering member learns its start round before it can see the sync
  /// that opens it.
  void grant_admission(std::uint64_t tag) {
    const std::uint64_t proposed = tag >> 12;
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who >= runtime_.config().size() || who == args_.id) {
      return;
    }
    const std::uint64_t granted = std::max(proposed, syncs_submitted_ + 1);
    marker_count_[who] = std::max(marker_count_[who], granted);
    departed_[who] = false;
    runtime_.replica().submit(cbc::object::nop(
        (granted << 12) | (static_cast<std::uint64_t>(who) << 2) | 3));
  }

  void on_admit(std::uint64_t tag) {
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who != args_.id || !awaiting_admission_) {
      return;
    }
    const std::uint64_t granted = tag >> 12;
    current_round_ = static_cast<std::int64_t>(granted) - 1;
    awaiting_admission_ = false;
    runtime_.write_progress();
  }

  void pump() {
    if (runtime_.stopping()) {
      return;
    }
    cbc::ReplicaNode<cbc::object::Value>& replica = runtime_.replica();
    if (args_.observer) {
      runtime_.write_progress();
      return;
    }
    if (g_depart_requested != 0 && !departure_submitted_) {
      // The departing nop is FIFO-chained after everything this member
      // has submitted, so delivering it proves our whole history arrived.
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(current_round_ + 1) << 2) | 1;
      replica.submit(cbc::object::nop(tag));
      departure_submitted_ = true;
      runtime_.write_report();  // role=departed; collected pre-restart
      return;
    }
    if (departure_submitted_) {
      return;  // lingering: serve retransmissions until SIGTERM
    }
    flush_checkpoint();
    if (recovered_.has_value() && !rejoin_submitted_) {
      // Single-shot rejoin: Occurs_After(last restored sync), so every
      // member delivers it inside a cycle the leader has yet to close.
      const std::uint64_t tag = ((syncs_delivered_ + 1) << 12) |
                                (static_cast<std::uint64_t>(args_.id) << 2) |
                                2;
      replica.submit(cbc::object::nop(tag));
      rejoin_submitted_ = true;
      runtime_.write_progress();
    }
    // Start the next round once the previous round's sync has arrived —
    // unless we are quiesced (submissions stopped for a planned kill) or
    // still waiting for the leader to grant our post-recovery round.
    const bool quiesced_rounds = args_.quiesce_at_round >= 0 &&
                                 current_round_ >= args_.quiesce_at_round;
    if (!awaiting_admission_ && !quiesced_rounds &&
        current_round_ + 1 < static_cast<std::int64_t>(args_.rounds) &&
        syncs_delivered_ >= static_cast<std::uint64_t>(current_round_ + 1)) {
      current_round_ += 1;
      for (std::uint64_t op = 0; op < args_.ops_per_round; ++op) {
        replica.submit(entry_.workload_op(
            args_.id, static_cast<std::uint64_t>(current_round_), op));
      }
      replica.submit(cbc::object::nop(
          static_cast<std::uint64_t>(current_round_) << 2));
      runtime_.write_progress();
    }
    if (quiesced_rounds) {
      runtime_.write_progress();  // the harness polls for quiesced=1
    }
    if (is_leader()) {
      maybe_close_round();
    }
    if (!runtime_.report_written() && syncs_delivered_ >= args_.rounds) {
      runtime_.write_report();  // done; keep looping to serve retransmissions
      // A done report promises an on-disk metrics page too — a fast run
      // may finish before the first snapshot tick.
      runtime_.dump_metrics();
    }
  }

  void maybe_close_round() {
    // Close round r (submit its sync) only when every live member's
    // round-r marker has been delivered here — the sync's Occurs_After
    // set then covers all of round r's commutative traffic, which is what
    // makes cycle membership identical at every member.
    if (syncs_submitted_ != syncs_delivered_ ||
        syncs_submitted_ > static_cast<std::uint64_t>(current_round_) ||
        syncs_submitted_ >= args_.rounds) {
      return;
    }
    const std::uint64_t round = syncs_submitted_;
    for (std::size_t member = 0; member < marker_count_.size(); ++member) {
      if (!departed_[member] && marker_count_[member] < round + 1) {
        return;
      }
    }
    runtime_.replica().submit(entry_.sync_op);
    syncs_submitted_ += 1;
  }

  Fields progress_fields() {
    // quiesced=1 promises the member is safe to SIGKILL: it has stopped
    // submitting, delivered its own quiesce round's sync, and holds no
    // unacknowledged frames — nothing of its history can be orphaned.
    bool quiesced = false;
    if (args_.quiesce_at_round >= 0 &&
        current_round_ >= args_.quiesce_at_round &&
        syncs_delivered_ >
            static_cast<std::uint64_t>(args_.quiesce_at_round)) {
      quiesced = osend().reliable_quiescent();
    }
    return {{"round", std::to_string(current_round_)},
            {"syncs", std::to_string(syncs_delivered_)},
            {"quiesced", quiesced ? "1" : "0"},
            {"admitted", awaiting_admission_ ? "0" : "1"},
            {"id", std::to_string(args_.id)}};
  }

  Fields report_fields() {
    const char* role = args_.observer          ? "observer"
                       : departure_submitted_  ? "departed"
                       : is_leader()           ? "leader"
                                               : "worker";
    const auto& stable = runtime_.replica().last_stable_state();
    return {{"id", std::to_string(args_.id)},
            {"role", role},
            {"done", syncs_delivered_ >= args_.rounds ? "1" : "0"},
            {"rounds_started", std::to_string(current_round_ + 1)},
            {"syncs", std::to_string(syncs_delivered_)},
            {"stable_state",
             stable.has_value() ? stable->to_string() : "none"},
            {"recovered", args_.recover ? "1" : "0"},
            {"malformed",
             std::to_string(runtime_.checker().stats().malformed)}};
  }

  NodeArgs args_;
  cbc::object::CatalogEntry entry_;
  std::optional<cbc::fault::Checkpoint> recovered_;  // transferred at boot
  NodeRuntime runtime_;

  // Workload state (loop-thread-only).
  std::int64_t current_round_ = -1;  // last round whose ops were submitted
  std::uint64_t syncs_delivered_ = 0;
  std::uint64_t syncs_submitted_ = 0;        // leader only
  std::vector<std::uint64_t> marker_count_;  // leader: nops per sender
  std::vector<bool> departed_;               // leader: departure seen
  bool departure_submitted_ = false;

  // Robustness state (loop-thread-only once the loop runs).
  std::optional<cbc::fault::Checkpoint> latest_checkpoint_;
  bool checkpoint_dirty_ = false;
  bool awaiting_admission_ = false;
  bool rejoin_submitted_ = false;
  cbc::obs::Counter* recovery_checkpoints_ = nullptr;
  cbc::obs::Counter* recovery_transfers_ = nullptr;
  cbc::obs::Gauge* recovery_restored_ = nullptr;
};

/// Recovery bootstrap, run BEFORE the stack exists: fetch a live peer's
/// latest checkpoint on a raw socket bound to our own address, so no
/// message is ever delivered against pre-restore state.
cbc::fault::Checkpoint fetch_recovery_checkpoint(
    const NodeArgs& args, const cbc::net::ClusterConfig& config) {
  cbc::NodeId peer = args.transfer_from;
  if (peer == cbc::kNoNode) {
    peer = args.id == 0 ? 1 : 0;
  }
  cbc::require(peer != args.id && peer < config.size(),
               "cbc_node: --transfer-from must name another member");
  cbc::fault::TransferOptions transfer;
  transfer.self = config.sockaddr_of(args.id);
  transfer.peer = config.sockaddr_of(peer);
  std::optional<cbc::fault::Checkpoint> recovered =
      cbc::fault::fetch_checkpoint_blocking({.requester = args.id, .have = 0},
                                            transfer);
  cbc::require(recovered.has_value(),
               "cbc_node: state transfer timed out — no checkpoint from "
               "member " + std::to_string(peer));
  return *std::move(recovered);
}

}  // namespace

int main(int argc, char** argv) {
  struct sigaction usr1 {};
  usr1.sa_handler = on_sigusr1;
  ::sigaction(SIGUSR1, &usr1, nullptr);

  try {
    NodeArgs args;
    try {
      args = parse_args(argc, argv);
    } catch (const cbc::InvalidArgument& error) {
      std::cerr << error.what() << "\n";
      usage();
      return 2;
    }
    cbc::apps::install_objects();
    cbc::net::ClusterConfig config =
        cbc::net::ClusterConfig::load(args.config_path);
    std::optional<cbc::fault::Checkpoint> recovered;
    if (args.recover) {
      recovered = fetch_recovery_checkpoint(args, config);
    }
    Node node(args, std::move(config), std::move(recovered));
    return node.run();
  } catch (const std::exception& error) {
    std::cerr << "cbc_node: fatal: " << error.what() << "\n";
    return 1;
  }
}
