// cbc_kv — the sharded causal KV service (§5.2) in one binary.
//
//   cbc_kv server --layout FILE --shard S --rank R [options]
//     One replica of one shard: the node runtime (src/runtime/
//     node_runtime.h; DESIGN.md, "One node runtime") running the
//     catalog's "kv" object over the shard's group, plus a KvService
//     answering client oob requests at this replica. Each shard is an
//     independent causal group: no causal metadata ever crosses shards.
//
//   cbc_kv drive --layout FILE [options]
//     The front-end driver: binds every shard's router slot, runs
//     `sessions` client sessions through a round-structured mixed
//     workload — each session puts its own key slots (keys hash across
//     all shards), then reads a neighbour session's keys after adopting
//     that session's context token (§5.2 token transfer), so every read
//     is a cross-shard, cross-session causal dependency the service must
//     honor. Each round closes with per-shard fences under the merged
//     round token; every session adopts the fence context before the
//     next round, which causally orders same-slot rewrites across
//     rounds. The driver verifies every read returns the value the
//     adopted context promises; a stale value is a consistency bug and
//     is counted in the report (value_mismatches, expected 0).
//
// Shutdown is context-consistent too: the driver sends kShutdown with
// its final token to every replica; a replica acks only once its shard
// frontier covers the token — i.e. once it has delivered the complete
// workload — then writes its report (and recorded history) and exits.
// By the time the last ack arrives, no replica needs retransmissions.
//
// --record-history: the runtime names broadcast ops by shard-qualified
// origins (shard * replicas + rank), so the per-rank histories of ALL
// shards merge into one id space for the offline cbc_check oracle;
// session-local gets are recorded at their true serve position with
// per-session origins.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/install.h"
#include "kv/kv_service.h"
#include "kv/session.h"
#include "kv/shard_map.h"
#include "object/catalog.h"
#include "runtime/node_runtime.h"
#include "util/ensure.h"
#include "util/flags.h"

namespace {

using cbc::runtime::Fields;
using cbc::runtime::NodeRuntime;

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

struct KvArgs {
  std::string mode;  // "server" or "drive"
  cbc::runtime::Flags flags;
  std::string layout_path;
  std::size_t shard = kNoShard;
  cbc::NodeId rank = cbc::kNoNode;
  std::int64_t wait_timeout_ms = 2000;

  // Driver knobs.
  std::uint64_t sessions = 2;
  std::uint64_t rounds = 3;
  std::uint64_t ops_per_round = 4;
  std::int64_t ready_timeout_ms = 20'000;
  std::int64_t exchange_timeout_ms = 5000;
};

void usage() {
  std::cerr
      << "usage: cbc_kv server --layout FILE --shard S --rank R [options]\n"
         "       cbc_kv drive  --layout FILE [options]\n"
         "  --layout FILE     kv layout file (shards/replicas/member lines)\n"
         "server options:\n"
         "  --shard S         this replica's shard\n"
         "  --rank R          this replica's rank within the shard\n"
         "  --wait-timeout-ms N  context-wait deadline before kRetry\n"
      << cbc::runtime::kFlagsUsage
      << "drive options:\n"
         "  --sessions N      client sessions (default 2)\n"
         "  --rounds R        workload rounds (default 3)\n"
         "  --ops K           key slots per session per round (default 4)\n"
         "  --report FILE     write the driver's key=value report here\n"
         "  --ready-timeout-ms N   wait for every replica to answer\n"
         "  --exchange-timeout-ms N  per-request client deadline\n";
}

KvArgs parse_args(int argc, char** argv) {
  KvArgs args;
  cbc::require(argc >= 2, "cbc_kv: a mode (server|drive) is required");
  args.mode = argv[1];
  cbc::require(args.mode == "server" || args.mode == "drive",
               "cbc_kv: mode must be server or drive");
  cbc::FlagCursor cursor("cbc_kv", argc, argv, 2);
  while (cursor.next()) {
    if (cbc::runtime::parse_flag(cursor, args.flags)) {
      continue;
    }
    const std::string& flag = cursor.flag();
    if (flag == "--layout") {
      args.layout_path = cursor.value();
    } else if (flag == "--shard") {
      args.shard = static_cast<std::size_t>(cursor.number(0, kNoShard - 1));
    } else if (flag == "--rank") {
      args.rank = cursor.node_id();
    } else if (flag == "--wait-timeout-ms") {
      args.wait_timeout_ms = cursor.millis(1);
    } else if (flag == "--sessions") {
      args.sessions = cursor.count(1);
    } else if (flag == "--rounds") {
      args.rounds = cursor.count();
    } else if (flag == "--ops") {
      args.ops_per_round = cursor.count(1);
    } else if (flag == "--ready-timeout-ms") {
      args.ready_timeout_ms = cursor.millis();
    } else if (flag == "--exchange-timeout-ms") {
      args.exchange_timeout_ms = cursor.millis();
    } else {
      cursor.unknown();
    }
  }
  cbc::require(!args.layout_path.empty(), "cbc_kv: --layout is required");
  if (args.mode == "server") {
    cbc::require(args.shard != kNoShard, "cbc_kv server: --shard is required");
    cbc::require(args.rank != cbc::kNoNode,
                 "cbc_kv server: --rank is required");
  }
  return args;
}

/// One kv replica: the runtime plus the KvService and its shutdown drain.
class Server {
 public:
  Server(const KvArgs& args, cbc::kv::KvLayout layout)
      : args_(args),
        layout_(std::move(layout)),
        runtime_(runtime_options()) {
    cbc::kv::KvService::Options service_options;
    service_options.shard = args_.shard;
    service_options.shards = layout_.shards;
    service_options.replicas = layout_.replicas;
    service_options.rank = args_.rank;
    service_options.wait_timeout_us = args_.wait_timeout_ms * 1000;
    if (!args_.flags.record_history_path.empty()) {
      service_options.record_get = [this](cbc::check::HistoryOp op) {
        runtime_.record(std::move(op));
      };
    }
    service_options.obs = runtime_.hooks("kv");
    service_ = std::make_unique<cbc::kv::KvService>(
        runtime_.replica(),
        [this](cbc::NodeId to, std::vector<std::uint8_t> payload) {
          runtime_.replica().osend().send_oob(to, payload);
        },
        [this] { return runtime_.loop().now_us(); },
        std::move(service_options));
  }

  int run() {
    runtime_.write_progress();
    return runtime_.run();
  }

 private:
  NodeRuntime::Options runtime_options() {
    cbc::require(args_.shard < layout_.shards,
                 "cbc_kv server: --shard out of range for the layout");
    cbc::require(args_.rank < layout_.replicas,
                 "cbc_kv server: --rank out of range for the layout");
    const auto entry = cbc::object::Catalog::instance().find("kv");
    cbc::require(entry.has_value(), "cbc_kv: catalog is missing 'kv'");
    NodeRuntime::Options options;
    options.flags = args_.flags;
    options.name = "cbc_kv_s" + std::to_string(args_.shard) + "_r" +
                   std::to_string(args_.rank);
    options.role = 1;
    options.config = layout_.shard_config(args_.shard);
    options.id = args_.rank;
    // The shard config carries replicas + 1 entries; the last is the
    // router slot — addressable, but never a causal group member.
    for (std::size_t rank = 0; rank < layout_.replicas; ++rank) {
      options.members.push_back(static_cast<cbc::NodeId>(rank));
    }
    options.entry = *entry;
    options.origin_base =
        cbc::kv::shard_origin(args_.shard, layout_.replicas, 0);
    options.labels = {{"shard", std::to_string(args_.shard)},
                      {"replica", std::to_string(args_.rank)}};
    // Client requests arrive inside the datagram-processing path (stack
    // lock held, front-end state mid-update). Serving them there would
    // deadlock on submit and compute wrong dependencies, so the payload
    // is copied and the service runs from a posted loop task — same loop
    // thread, outside the stack.
    options.reliability.oob_handler =
        [this](cbc::NodeId from, std::span<const std::uint8_t> payload) {
          std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
          runtime_.loop().post([this, from, bytes = std::move(bytes)] {
            service_->handle(from, bytes);
          });
        };
    // After the replica applied a broadcast op is the earliest sound
    // moment to wake parked client requests — deferred to a posted task
    // so serving happens outside the stack, with the front end caught up.
    options.on_apply = [this](const cbc::Delivery&,
                              const std::vector<std::uint8_t>&) {
      runtime_.loop().post([this] { service_->on_delivery(); });
    };
    options.on_tick = [this] { tick(); };
    options.report = [this] { return report_fields(); };
    options.progress = [this] { return progress_fields(); };
    return options;
  }

  void tick() {
    service_->poll();
    runtime_.write_progress();
    if (service_->drain_requested()) {
      // The drain ack has been sent (the shutdown request's token was
      // covered, so the full workload is delivered here). Linger a few
      // ticks so the ack datagram and any final acks flush, then exit.
      ++drain_ticks_;
      if (drain_ticks_ >= 10) {
        runtime_.finish();
      }
    }
  }

  Fields progress_fields() {
    // shard/rank ride along so fleet tools (cbc_top) can discover live
    // scrape endpoints before any final report exists.
    return {{"requests", std::to_string(service_->stats().requests)},
            {"parked", std::to_string(service_->parked())},
            {"drain", service_->drain_requested() ? "1" : "0"},
            {"shard", std::to_string(args_.shard)},
            {"rank", std::to_string(args_.rank)}};
  }

  Fields report_fields() {
    const cbc::kv::KvService::Stats& s = service_->stats();
    return {{"shard", std::to_string(args_.shard)},
            {"rank", std::to_string(args_.rank)},
            {"done", service_->drain_requested() ? "1" : "0"},
            {"requests", std::to_string(s.requests)},
            {"puts", std::to_string(s.puts)},
            {"gets", std::to_string(s.gets)},
            {"fences", std::to_string(s.fences)},
            {"context_waits", std::to_string(s.context_waits)},
            {"context_timeouts", std::to_string(s.context_timeouts)},
            {"malformed", std::to_string(s.malformed)}};
  }

  KvArgs args_;
  cbc::kv::KvLayout layout_;
  NodeRuntime runtime_;
  std::unique_ptr<cbc::kv::KvService> service_;
  int drain_ticks_ = 0;
};

/// The workload value every session writes into slot k at round r — and
/// therefore the exact value a causally-fresh read must return.
std::string slot_key(std::uint64_t session, std::uint64_t slot) {
  return "s" + std::to_string(session) + "_k" + std::to_string(slot);
}

std::string slot_value(std::uint64_t session, std::uint64_t slot,
                       std::uint64_t round) {
  return "r" + std::to_string(round) + "v" + std::to_string(session + slot);
}

int run_driver(const KvArgs& args, cbc::kv::KvLayout layout) {
  cbc::kv::KvClient::Options client_options;
  client_options.exchange_timeout_ms = args.exchange_timeout_ms;
  cbc::kv::KvClient client(std::move(layout), client_options);
  const std::size_t shards = client.layout().shards;
  const std::size_t replicas = client.layout().replicas;

  if (!client.wait_ready(args.ready_timeout_ms)) {
    std::cerr << "cbc_kv drive: replicas did not become ready\n";
    return 1;
  }

  std::vector<cbc::kv::KvSession> sessions;
  sessions.reserve(args.sessions);
  for (std::uint64_t s = 0; s < args.sessions; ++s) {
    sessions.emplace_back(client, s + 1);
  }

  std::uint64_t value_mismatches = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> final_digests(shards, 0);
  for (std::uint64_t round = 0; round < args.rounds; ++round) {
    // 1. Every session rewrites its own key slots (keys hash across all
    //    shards — each session's round is a cross-shard write fan-out).
    for (std::uint64_t s = 0; s < args.sessions; ++s) {
      for (std::uint64_t slot = 0; slot < args.ops_per_round; ++slot) {
        if (!sessions[s].put(slot_key(s, slot), slot_value(s, slot, round))) {
          ++failures;
        }
      }
    }
    // 2. Cross-session causal reads: session s adopts its neighbour's
    //    context (§5.2 — the token passes with the data) and must then
    //    observe exactly the neighbour's round-r values, whichever shard
    //    and replica serves the read.
    for (std::uint64_t s = 0; s < args.sessions && args.sessions > 1; ++s) {
      const std::uint64_t peer = (s + 1) % args.sessions;
      sessions[s].adopt(sessions[peer].context());
      for (std::uint64_t slot = 0; slot < args.ops_per_round; ++slot) {
        const auto got = sessions[s].get(slot_key(peer, slot));
        if (!got.has_value()) {
          ++failures;
          continue;
        }
        if (!got->present || got->value != slot_value(peer, slot, round)) {
          ++value_mismatches;
        }
      }
    }
    // 3. Close the round: session 0 adopts every session's context and
    //    fences each shard — the fence causally follows all round-r puts
    //    on its shard. Everyone then adopts the fence context, so round
    //    r+1's same-slot rewrites are causally after fence r.
    for (std::uint64_t s = 1; s < args.sessions; ++s) {
      sessions[0].adopt(sessions[s].context());
    }
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const auto digest = sessions[0].fence(shard);
      if (!digest.has_value()) {
        ++failures;
        continue;
      }
      final_digests[shard] = *digest;
    }
    for (std::uint64_t s = 1; s < args.sessions; ++s) {
      sessions[s].adopt(sessions[0].context());
    }
  }

  // Context-consistent shutdown: the final token covers the complete
  // workload, so each replica acks only once it has delivered everything.
  std::uint64_t shutdown_failures = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      if (!sessions[0].shutdown(shard, rank)) {
        ++shutdown_failures;
      }
    }
  }

  std::uint64_t retries = 0;
  for (const cbc::kv::KvSession& session : sessions) {
    retries += session.retries();
  }
  const cbc::kv::KvClient::Stats& cs = client.stats();
  Fields kv = {
      {"sessions", std::to_string(args.sessions)},
      {"rounds", std::to_string(args.rounds)},
      {"ops", std::to_string(args.ops_per_round)},
      {"shards", std::to_string(shards)},
      {"replicas", std::to_string(replicas)},
      {"done", failures == 0 && shutdown_failures == 0 ? "1" : "0"},
      {"value_mismatches", std::to_string(value_mismatches)},
      {"failures", std::to_string(failures)},
      {"shutdown_failures", std::to_string(shutdown_failures)},
      {"retries", std::to_string(retries)},
      {"exchanges", std::to_string(cs.exchanges)},
      {"resends", std::to_string(cs.resends)},
      {"stray_datagrams", std::to_string(cs.stray_datagrams)},
  };
  for (std::size_t shard = 0; shard < shards; ++shard) {
    kv.emplace_back("digest_shard" + std::to_string(shard),
                    cbc::runtime::hex64(final_digests[shard]));
  }
  cbc::runtime::write_fields(args.flags.report_path, kv);
  if (value_mismatches != 0) {
    std::cerr << "cbc_kv drive: " << value_mismatches
              << " causally-stale read(s) observed\n";
  }
  return failures == 0 && shutdown_failures == 0 && value_mismatches == 0 ? 0
                                                                          : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    KvArgs args;
    try {
      args = parse_args(argc, argv);
    } catch (const cbc::InvalidArgument& error) {
      std::cerr << error.what() << "\n";
      usage();
      return 2;
    }
    cbc::apps::install_objects();
    cbc::kv::KvLayout layout = cbc::kv::KvLayout::load(args.layout_path);
    if (args.mode == "drive") {
      return run_driver(args, std::move(layout));
    }
    Server server(args, std::move(layout));
    return server.run();
  } catch (const std::exception& error) {
    std::cerr << "cbc_kv: fatal: " << error.what() << "\n";
    return 1;
  }
}
