// kv-sessions: the sharded causal KV service (§5.2) — 2 shards × 3
// replicas of the `kv` object behind KvService, on 3 loop threads (loop
// r hosts rank r of both shards), driven by 10 client sessions that one
// driver thread multiplexes over the shards' router-slot sockets with the
// kv/wire.h codec.
//
// Set-up loads kKeys keys (about 4,000 per shard) by submitting puts at
// every replica, then fences each shard. The timed part runs rounds:
// every session issues kOpsPerRound requests with one outstanding at a
// time — 25% puts of its own keys, 75% gets of keys another session owns,
// sent after adopting that session's context token — then the driver
// fences both shards under the merged token and every session adopts the
// fence context. The loop is closed, on loopback, with no injected delay.
//
// The driver keeps its own per-key model of issued and acknowledged puts
// and checks every get against it; after the closing fence it checks
// replica agreement and contents against the model.
#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/kv_store.h"
#include "check/history.h"
#include "kv/kv_service.h"
#include "kv/shard_map.h"
#include "kv/wire.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "stack.h"
#include "transport/reliable.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kReplicas = 3;
constexpr std::size_t kSessions = 10;
constexpr std::size_t kKeys = 8000;
constexpr std::uint64_t kOpsPerRound = 100;  // per session, then fences
constexpr std::uint64_t kPutPercent = 25;
constexpr std::size_t kPutHistory = 4;  // acknowledged puts kept per key
constexpr std::int64_t kResendNs = 1'000'000'000;
constexpr std::int64_t kRequestTimeoutNs = 10'000'000'000;
constexpr std::int64_t kStallNs = 60'000'000'000;
constexpr std::size_t kLoadChunk = 64;  // puts per replica per load step

std::string key_name(std::size_t key) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "key%05zu", key);
  return buffer;
}

/// Values encode their key and version so every read is checkable.
std::string value_for(std::size_t key, std::uint32_t version) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "v%07u.k%05zu", version, key);
  return buffer;
}

std::optional<std::pair<std::size_t, std::uint32_t>> parse_value(
    const std::string& value) {
  unsigned version = 0;
  std::size_t key = 0;
  if (std::sscanf(value.c_str(), "v%7u.k%5zu", &version, &key) != 2 ||
      value != value_for(key, version)) {
    return std::nullopt;
  }
  return std::make_pair(key, static_cast<std::uint32_t>(version));
}

std::int64_t steady_now_us() { return now_ns() / 1000; }

/// Wraps a kv payload the way a shard's stack expects it: a one-entry
/// batch around a reliable-layer out-of-band frame.
std::vector<std::uint8_t> frame_for_wire(
    std::span<const std::uint8_t> payload) {
  cbc::Writer oob;
  oob.u8(cbc::ReliableEndpoint::kOobFrameType);
  oob.raw(payload);
  cbc::Writer batch;
  batch.u32(1);
  batch.blob(oob.bytes());
  return batch.take();
}

/// Every out-of-band payload in one received datagram.
std::vector<std::vector<std::uint8_t>> scan_datagram(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::vector<std::uint8_t>> payloads;
  try {
    cbc::Reader reader(bytes);
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::span<const std::uint8_t> inner = reader.blob_view();
      if (inner.empty() ||
          inner[0] != cbc::ReliableEndpoint::kOobFrameType) {
        continue;
      }
      payloads.emplace_back(inner.begin() + 1, inner.end());
    }
  } catch (const cbc::SerdeError&) {
    payloads.clear();
  }
  return payloads;
}

/// One acknowledged put: version and the broadcast that carried it.
struct PutRecord {
  std::uint32_t version = 0;
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;
};

/// The benchmark's model of one key.
struct KeyModel {
  std::uint32_t issued = 0;  ///< newest version sent
  std::array<PutRecord, kPutHistory> acked{};  ///< newest first
};

/// Per-session timing of the request a replica is serving (traced run):
/// written on loop threads, read by the driver after the reply arrived.
struct ServeTimes {
  std::atomic<std::uint64_t> request{0};
  std::atomic<std::int64_t> entry_ns{0};
  std::atomic<std::int64_t> reply_ns{0};
};

thread_local bool t_in_handle = false;

/// One replica's bookkeeping; `applied` is read by the driver.
struct ReplicaBook {
  std::atomic<std::uint64_t> applied{0};
  std::atomic<std::uint64_t> want{UINT64_MAX};
  std::array<std::uint64_t, kReplicas> last_seq{};
  std::uint64_t sequence_errors = 0;
  std::uint64_t holdback_max = 0;  // traced run: sampled hold-back depth
  std::vector<cbc::check::HistoryOp> history;  // check mode only
};

struct KvRig {
  KvRig() : loops(kReplicas) {}
  ~KvRig() { loops.stop_and_join(); }
  KvRig(const KvRig&) = delete;
  KvRig& operator=(const KvRig&) = delete;

  LoopGroup loops;
  std::array<std::array<ReplicaBook, kReplicas>, kShards> books;
  std::array<std::array<std::unique_ptr<MemberStack>, kReplicas>, kShards>
      stacks;
  std::array<std::array<std::unique_ptr<cbc::kv::KvService>, kReplicas>,
             kShards>
      services;
  std::array<ServeTimes, kSessions + 1> serve_times;
  SharedHistogram context_wait_ns;
  std::atomic<std::uint64_t> context_waits{0};
  Signal signal;

  ReplicaBook& book(std::size_t shard, std::size_t rank) {
    return books[shard][rank];
  }

  void on_apply(std::size_t shard, std::size_t rank,
                const cbc::Delivery& delivery, bool record,
                const std::vector<std::uint8_t>& response) {
    ReplicaBook& b = book(shard, rank);
    const std::size_t origin = delivery.sender;
    if (origin >= kReplicas || delivery.id.seq != b.last_seq[origin] + 1) {
      b.sequence_errors += 1;
    }
    if (origin < kReplicas) {
      b.last_seq[origin] = std::max(b.last_seq[origin], delivery.id.seq);
    }
    if (record) {
      const auto remap = [shard](const cbc::MessageId& id) {
        return cbc::MessageId{
            cbc::kv::shard_origin(shard, kReplicas, id.sender), id.seq};
      };
      cbc::check::HistoryOp op;
      op.id = remap(delivery.id);
      op.origin = cbc::kv::shard_origin(shard, kReplicas, delivery.sender);
      op.label = delivery.label();
      const auto payload = delivery.payload();
      op.args.assign(payload.begin(), payload.end());
      for (const cbc::MessageId& dep : delivery.deps().ids()) {
        op.deps.push_back(remap(dep));
      }
      op.response = response;
      b.history.push_back(std::move(op));
    }
    const std::uint64_t applied =
        b.applied.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (applied >= b.want.load(std::memory_order_acquire)) {
      signal.notify();
    }
  }

  /// Sleeps until every replica of `shard` has applied `target` ops.
  bool wait_shard_applied(std::size_t shard, std::uint64_t target,
                          std::int64_t deadline_ns) {
    for (ReplicaBook& b : books[shard]) {
      b.want.store(target, std::memory_order_release);
    }
    return signal.wait_until(deadline_ns, [&] {
      for (const ReplicaBook& b : books[shard]) {
        if (b.applied.load(std::memory_order_acquire) < target) {
          return false;
        }
      }
      return true;
    });
  }

  /// KvService::handle, inside a span named by request kind (traced).
  void handle(std::size_t shard, std::size_t rank, cbc::NodeId from,
              const std::vector<std::uint8_t>& bytes, bool trace) {
    cbc::kv::KvService& service = *services[shard][rank];
    if (!trace) {
      service.handle(from, bytes);
      return;
    }
    SpanName name = SpanName::kKvOther;
    std::uint64_t id = 0;
    if (const auto request = cbc::kv::parse_op_request(bytes)) {
      name = request->type == cbc::kv::MsgType::kGet   ? SpanName::kKvGet
             : request->type == cbc::kv::MsgType::kPut ? SpanName::kKvPut
             : request->type == cbc::kv::MsgType::kFence
                 ? SpanName::kKvFence
                 : SpanName::kKvOther;
      id = (request->session << 48) | request->request;
      if (request->session >= 1 && request->session <= kSessions) {
        ServeTimes& times = serve_times[request->session];
        times.entry_ns.store(now_ns(), std::memory_order_relaxed);
        times.request.store(request->request, std::memory_order_release);
      }
    }
    t_in_handle = true;
    {
      const Span span(name, id);
      service.handle(from, bytes);
    }
    t_in_handle = false;
  }

  /// The service's reply function, inside a span (traced run): a reply
  /// made outside handle() answers a request that waited for context.
  void reply(std::size_t shard, std::size_t rank, cbc::NodeId to,
             const std::vector<std::uint8_t>& payload, bool trace) {
    if (trace) {
      if (const auto response = cbc::kv::parse_op_response(payload);
          response.has_value() && response->session >= 1 &&
          response->session <= kSessions) {
        ServeTimes& times = serve_times[response->session];
        const std::int64_t now = now_ns();
        if (!t_in_handle && response->status == cbc::kv::Status::kOk &&
            times.request.load(std::memory_order_acquire) ==
                response->request &&
            now >= Tracer::instance().window_start()) {
          context_wait_ns.record(
              now - times.entry_ns.load(std::memory_order_relaxed));
          context_waits.fetch_add(1, std::memory_order_relaxed);
        }
        times.reply_ns.store(now, std::memory_order_release);
      }
    }
    const Span span(SpanName::kKvReply);
    stacks[shard][rank]->osend()->send_oob(to, payload);
  }

  void arm_tick(std::size_t shard, std::size_t rank) {
    loops.loop(rank).schedule(20'000, [this, shard, rank] {
      services[shard][rank]->poll();
      arm_tick(shard, rank);
    });
  }
};

/// One client session: at most one request outstanding.
struct Session {
  std::size_t index = 0;  ///< 0-based; wire session id is index + 1
  Rng rng{0};
  cbc::kv::ContextToken token;
  std::uint64_t next_request = 1;
  std::uint64_t ops_this_round = 0;
  std::uint64_t round_robin = 0;  ///< serving replica, as KvSession picks it
  bool busy = false;
  // The outstanding request.
  cbc::kv::OpRequest request;
  std::vector<std::uint8_t> wire;
  std::size_t shard = 0;
  std::size_t rank = 0;
  std::size_t key = 0;
  std::uint32_t version = 0;  ///< put: version written
  std::uint32_t lower = 0;    ///< get: oldest acceptable version
  std::int64_t first_send_ns = 0;
  std::int64_t last_send_ns = 0;
};

/// The multiplexing client: one socket per shard, bound at the shard's
/// router slot.
class Client {
 public:
  explicit Client(const cbc::kv::KvLayout& layout) {
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      configs_.push_back(layout.shard_config(shard));
      const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
      const sockaddr_in self =
          configs_[shard].sockaddr_of(layout.router_slot());
      if (fd < 0 || ::bind(fd, reinterpret_cast<const sockaddr*>(&self),
                           sizeof(self)) != 0) {
        if (fd >= 0) {
          ::close(fd);
        }
        close_all();
        throw std::runtime_error("kv client: cannot bind a router slot");
      }
      fds_.push_back(fd);
      const int buffer = 1 << 20;
      (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
    }
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::size_t shard, std::size_t rank,
            const std::vector<std::uint8_t>& wire) {
    const sockaddr_in peer =
        configs_[shard].sockaddr_of(static_cast<cbc::NodeId>(rank));
    (void)::sendto(fds_[shard], wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&peer), sizeof(peer));
  }

  /// Waits up to `timeout_ms` for traffic, then hands every kv payload
  /// received on any shard socket to `on_payload`.
  template <typename Fn>
  void receive(int timeout_ms, Fn on_payload) {
    std::array<pollfd, kShards> pfds{};
    for (std::size_t i = 0; i < kShards; ++i) {
      pfds[i] = {fds_[i], POLLIN, 0};
    }
    if (::poll(pfds.data(), pfds.size(), timeout_ms) <= 0) {
      return;
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      while (true) {
        const ssize_t n = ::recv(fds_[i], buffer_.data(), buffer_.size(), 0);
        if (n < 0) {
          break;
        }
        for (const auto& payload : scan_datagram(std::span<const std::uint8_t>(
                 buffer_.data(), static_cast<std::size_t>(n)))) {
          on_payload(payload);
        }
      }
    }
  }

 private:
  void close_all() {
    for (const int fd : fds_) {
      ::close(fd);
    }
    fds_.clear();
  }

  std::vector<cbc::net::ClusterConfig> configs_;
  std::vector<int> fds_;
  std::vector<std::uint8_t> buffer_ = std::vector<std::uint8_t>(64 * 1024);
};

}  // namespace

RunResult run_kv_sessions(const RunOptions& options) {
  RunResult result;
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const bool trace = options.trace;
  const bool record = options.check_history;
  KvRig rig;

  const auto entry = cbc::object::Catalog::instance().find("kv");
  const cbc::CommutativitySpec spec =
      cbc::object::derive_commutativity(entry->spec());
  const cbc::kv::KvLayout layout = cbc::kv::KvLayout::localhost(
      kShards, kReplicas, reserve_udp_ports(kShards * (kReplicas + 1)));
  const cbc::kv::ShardMap map(kShards);
  auto log = std::make_shared<cbc::check::ViolationLog>();
  std::vector<cbc::NodeId> members;
  for (std::size_t rank = 0; rank < kReplicas; ++rank) {
    members.push_back(static_cast<cbc::NodeId>(rank));
  }
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t rank = 0; rank < kReplicas; ++rank) {
      cbc::net::EventLoop& loop = rig.loops.loop(rank);
      StackOptions stack_options;
      stack_options.config = layout.shard_config(shard);
      stack_options.id = static_cast<cbc::NodeId>(rank);
      stack_options.members = members;
      stack_options.trace = trace;
      stack_options.spec = spec;
      stack_options.initial = cbc::object::Value(entry->make());
      stack_options.log = log;
      // Client requests arrive inside the receive path; as in cbc_kv the
      // bytes are copied and served from a posted loop task.
      stack_options.oob = [&rig, &loop, shard, rank, trace](
                              cbc::NodeId from,
                              std::span<const std::uint8_t> payload) {
        std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
        loop.post([&rig, shard, rank, from, trace,
                   bytes = std::move(bytes)] {
          rig.handle(shard, rank, from, bytes, trace);
        });
      };
      rig.stacks[shard][rank] =
          std::make_unique<MemberStack>(loop, std::move(stack_options));
      Replica& replica = rig.stacks[shard][rank]->replica();
      if (trace) {
        cbc::OSendMember* osend = rig.stacks[shard][rank]->osend();
        ReplicaBook* book = &rig.book(shard, rank);
        rig.stacks[shard][rank]->batch_tap()->set_upcall_sampler(
            [osend, book] {
              book->holdback_max = std::max<std::uint64_t>(
                  book->holdback_max, osend->holdback_depth());
            });
      }

      cbc::kv::KvService::Options service_options;
      service_options.shard = shard;
      service_options.shards = kShards;
      service_options.replicas = kReplicas;
      service_options.rank = static_cast<cbc::NodeId>(rank);
      if (record) {
        ReplicaBook* book = &rig.book(shard, rank);
        service_options.record_get = [book](cbc::check::HistoryOp op) {
          book->history.push_back(std::move(op));
        };
      }
      rig.services[shard][rank] = std::make_unique<cbc::kv::KvService>(
          replica,
          [&rig, shard, rank, trace](cbc::NodeId to,
                                     std::vector<std::uint8_t> payload) {
            rig.reply(shard, rank, to, payload, trace);
          },
          [] { return steady_now_us(); }, std::move(service_options));
      replica.set_apply_observer(
          [&rig, &loop, shard, rank, record](
              const cbc::Delivery& delivery,
              const std::vector<std::uint8_t>& response) {
            rig.on_apply(shard, rank, delivery, record, response);
            loop.post([&rig, shard, rank] {
              rig.services[shard][rank]->on_delivery();
            });
          });
      rig.arm_tick(shard, rank);
    }
  }
  rig.loops.start();

  Client client(layout);
  std::uint64_t nonce = 1;
  // --- Readiness: every replica answers a map exchange.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t rank = 0; rank < kReplicas; ++rank) {
      bool ready = false;
      const std::int64_t deadline = now_ns() + 20'000'000'000;
      while (!ready && now_ns() < deadline) {
        cbc::kv::MapRequest request;
        request.nonce = nonce++;
        client.send(shard, rank,
                    frame_for_wire(cbc::kv::encode_map_request(request)));
        const std::int64_t resend = now_ns() + 100'000'000;
        while (!ready && now_ns() < resend) {
          client.receive(10, [&](const std::vector<std::uint8_t>& payload) {
            const auto response = cbc::kv::parse_map_response(payload);
            ready = ready || (response.has_value() &&
                              response->nonce == request.nonce &&
                              response->shard == shard &&
                              response->rank == rank &&
                              response->shards == kShards &&
                              response->replicas == kReplicas);
          });
        }
      }
      if (!ready) {
        result.fail("replica " + std::to_string(shard) + "/" +
                    std::to_string(rank) + " did not answer a map exchange");
        return result;
      }
    }
  }

  // --- Load the key space: puts submitted at every replica, round-robin
  // over the ranks of the key's shard, then one fence per shard.
  std::vector<KeyModel> model(kKeys);
  std::array<std::array<std::uint64_t, kReplicas>, kShards> broadcasts{};
  {
    std::array<std::array<std::vector<std::size_t>, kReplicas>, kShards>
        assignment;
    std::array<std::size_t, kShards> next_rank{};
    for (std::size_t key = 0; key < kKeys; ++key) {
      const std::size_t shard = map.shard_of(key_name(key));
      const std::size_t rank = next_rank[shard]++ % kReplicas;
      assignment[shard][rank].push_back(key);
      broadcasts[shard][rank] += 1;
      model[key].issued = 1;
      model[key].acked[0] = {1, static_cast<std::uint32_t>(rank),
                             broadcasts[shard][rank]};
    }
    // Paced in chunks: every replica submits at most kLoadChunk puts
    // before the whole deployment has applied them, so the load never
    // overruns socket buffers into loss and retransmission timeouts.
    std::array<std::uint64_t, kShards> loaded{};
    for (std::size_t first = 0;; first += kLoadChunk) {
      bool posted = false;
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        for (std::size_t rank = 0; rank < kReplicas; ++rank) {
          const std::vector<std::size_t>& keys = assignment[shard][rank];
          if (first >= keys.size()) {
            continue;
          }
          const std::size_t last = std::min(keys.size(), first + kLoadChunk);
          loaded[shard] += last - first;
          posted = true;
          rig.loops.loop(rank).post(
              [&rig, shard, rank,
               chunk = std::vector<std::size_t>(keys.begin() + first,
                                                keys.begin() + last)] {
                for (const std::size_t key : chunk) {
                  rig.stacks[shard][rank]->submit(cbc::apps::KvStore::put(
                      key_name(key), value_for(key, 1)));
                }
              });
        }
      }
      if (!posted) {
        break;
      }
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        if (!rig.wait_shard_applied(shard, loaded[shard],
                                    now_ns() + kStallNs)) {
          result.fail("shard " + std::to_string(shard) +
                      " did not apply its key-space load");
          return result;
        }
      }
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      rig.loops.loop(0).post([&rig, shard] {
        rig.stacks[shard][0]->submit(cbc::apps::KvStore::fence(shard, kShards));
      });
      broadcasts[shard][0] += 1;
      if (!rig.wait_shard_applied(shard, loaded[shard] + 1, now_ns() + kStallNs)) {
        result.fail("shard " + std::to_string(shard) +
                    " did not apply its load fence");
        return result;
      }
    }
  }
  cbc::kv::ContextToken loaded_token =
      cbc::kv::ContextToken::zero(kShards, kReplicas);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t rank = 0; rank < kReplicas; ++rank) {
      loaded_token.shards[shard].seqs[rank] = broadcasts[shard][rank];
    }
  }
  std::vector<Session> sessions(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions[s].index = s;
    sessions[s].rng = Rng(options.seed * 0x9E3779B97F4A7C15ULL + 101 + s);
    sessions[s].token = loaded_token;
    sessions[s].round_robin = s;
  }

  // --- Timed rounds.
  const std::int64_t start = now_ns();
  const std::int64_t end = start + window_ns;
  const std::int64_t late = start + window_ns / 5 * 4;
  Tracer::instance().set_window(start, late);
  const Clocks clocks_start = Clocks::read();
  std::optional<Clocks> clocks_end;
  cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder();
  const std::uint64_t flight_start = recorder->total_recorded();
  std::uint64_t bytes_start = 0;
  for (auto& shard_stacks : rig.stacks) {
    for (auto& stack : shard_stacks) {
      if (stack->udp_tap() != nullptr) {
        bytes_start += stack->udp_tap()->bytes();
      }
    }
  }

  LatencySlices latency(window_ns);
  Histogram wire_ns;
  RateBuckets rate(window_ns);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t resends = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unresolved_reads = 0;
  std::uint64_t rounds = 0;
  // Per shard, the state digest each round's fence returned: the shard's
  // agreed state at every stable point. Puts race to replica sequence
  // numbers, so the checker's id-based chain differs between runs; this
  // content chain does not.
  std::array<std::vector<std::uint64_t>, kShards> fence_digests;
  std::vector<std::string> mismatch_examples;

  auto issue = [&](Session& session, cbc::kv::MsgType type, std::size_t shard,
                   std::size_t rank) {
    session.request.type = type;
    session.request.session = session.index + 1;
    session.request.request = session.next_request++;
    session.request.token = session.token;
    session.wire = frame_for_wire(cbc::kv::encode_op_request(session.request));
    session.shard = shard;
    session.rank = rank;
    session.busy = true;
    session.first_send_ns = now_ns();
    session.last_send_ns = session.first_send_ns;
    attempted += 1;
    client.send(shard, rank, session.wire);
  };

  auto issue_next_op = [&](Session& session) {
    const std::size_t owned = kKeys / kSessions;
    const bool put = session.rng.below(100) < kPutPercent;
    std::size_t owner = session.index;
    if (!put) {
      owner = (session.index + 1 + session.rng.below(kSessions - 1)) %
              kSessions;
      session.token.merge(sessions[owner].token);  // §5.2 token adoption
    }
    const std::size_t key = session.rng.below(owned) * kSessions + owner;
    const std::size_t rank = session.round_robin++ % kReplicas;
    const std::string name = key_name(key);
    session.key = key;
    session.request.key = name;
    if (put) {
      session.version = ++model[key].issued;
      session.request.value = value_for(key, session.version);
    } else {
      session.request.value.clear();
      // The newest acknowledged put this token covers: the read may not
      // return anything older.
      const std::size_t shard = map.shard_of(name);
      const KeyModel& km = model[key];
      session.lower = 0;
      for (const PutRecord& p : km.acked) {
        if (p.version != 0 &&
            session.token.shards[shard].seqs[p.rank] >= p.seq) {
          session.lower = p.version;
          break;
        }
      }
      if (session.lower == 0) {
        unresolved_reads += 1;  // older than the kept history: bound is 1
        session.lower = 1;
      }
    }
    issue(session, put ? cbc::kv::MsgType::kPut : cbc::kv::MsgType::kGet,
          map.shard_of(name), rank);
    session.ops_this_round += 1;
  };

  auto on_response = [&](const cbc::kv::OpResponse& response) {
    if (response.session < 1 || response.session > kSessions) {
      return;
    }
    Session& session = sessions[response.session - 1];
    if (!session.busy || response.request != session.request.request) {
      return;  // late duplicate of an answered request
    }
    const std::int64_t now = now_ns();
    if (response.status == cbc::kv::Status::kRetry) {
      retries += 1;
      session.last_send_ns = now;
      client.send(session.shard, session.rank, session.wire);
      return;
    }
    session.busy = false;
    session.token.merge_shard(static_cast<std::size_t>(response.shard),
                              response.frontier);
    completed += 1;
    latency.record(now - start, now - session.first_send_ns);
    rate.add(now - start);
    if (trace) {
      ServeTimes& times = rig.serve_times[response.session];
      if (times.request.load(std::memory_order_acquire) == response.request) {
        const std::int64_t entry = times.entry_ns.load(std::memory_order_relaxed);
        const std::int64_t replied =
            times.reply_ns.load(std::memory_order_acquire);
        wire_ns.record((entry - session.last_send_ns) + (now - replied));
      }
    }
    switch (session.request.type) {
      case cbc::kv::MsgType::kPut: {
        KeyModel& km = model[session.key];
        for (std::size_t i = kPutHistory - 1; i > 0; --i) {
          km.acked[i] = km.acked[i - 1];
        }
        km.acked[0] = {session.version,
                       static_cast<std::uint32_t>(session.rank),
                       response.frontier.seqs.size() > session.rank
                           ? response.frontier.seqs[session.rank]
                           : 0};
        broadcasts[session.shard][session.rank] += 1;
        break;
      }
      case cbc::kv::MsgType::kGet: {
        const auto parsed = parse_value(response.value);
        const std::uint32_t issued = model[session.key].issued;
        if (!response.present || !parsed.has_value() ||
            parsed->first != session.key || parsed->second < session.lower ||
            parsed->second > issued) {
          mismatches += 1;
          if (mismatch_examples.size() < 5) {
            mismatch_examples.push_back(
                "get " + key_name(session.key) + " returned '" +
                response.value + "', expected a version in [" +
                std::to_string(session.lower) + ", " + std::to_string(issued) +
                "]");
          }
        }
        break;
      }
      case cbc::kv::MsgType::kFence:
        fence_digests[session.shard].push_back(response.fence_digest);
        broadcasts[session.shard][session.rank] += 1;
        break;
      default:
        break;
    }
  };

  // Drives the client until no session is busy: responses, kRetry
  // re-sends, loss re-sends, and the end-of-window CPU reading.
  auto pump = [&](bool issue_ops) {
    while (true) {
      bool any_busy = false;
      const std::int64_t now = now_ns();
      if (!clocks_end && now >= end) {
        clocks_end = Clocks::read();
      }
      for (Session& session : sessions) {
        if (!session.busy && issue_ops && session.ops_this_round < kOpsPerRound) {
          issue_next_op(session);
        }
        if (!session.busy) {
          continue;
        }
        any_busy = true;
        if (now - session.first_send_ns > kRequestTimeoutNs) {
          session.busy = false;
          failed += 1;
          continue;
        }
        if (now - session.last_send_ns > kResendNs) {
          resends += 1;
          session.last_send_ns = now;
          client.send(session.shard, session.rank, session.wire);
        }
      }
      if (!any_busy) {
        return;
      }
      client.receive(1, [&](const std::vector<std::uint8_t>& payload) {
        if (const auto response = cbc::kv::parse_op_response(payload)) {
          on_response(*response);
        }
      });
    }
  };

  while (true) {
    for (Session& session : sessions) {
      session.ops_this_round = 0;
    }
    pump(true);
    // Round barrier: fence every shard under the merged context, then
    // every session adopts the fence context.
    cbc::kv::ContextToken merged = sessions[0].token;
    for (const Session& session : sessions) {
      merged.merge(session.token);
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      Session& fencer = sessions[shard];
      fencer.token = merged;
      fencer.request.key.clear();
      fencer.request.value.clear();
      issue(fencer, cbc::kv::MsgType::kFence, shard,
            (rounds + shard) % kReplicas);
    }
    pump(false);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      merged.merge(sessions[shard].token);
    }
    for (Session& session : sessions) {
      session.token = merged;
    }
    rounds += 1;
    if (now_ns() >= end) {
      break;
    }
  }
  if (!clocks_end) {
    clocks_end = Clocks::read();
  }
  const std::uint64_t flight_records =
      recorder->total_recorded() - flight_start;

  // Every replica applies every broadcast of its shard before the check.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    std::uint64_t total = 0;
    for (const std::uint64_t n : broadcasts[shard]) {
      total += n;
    }
    if (!rig.wait_shard_applied(shard, total, now_ns() + kStallNs)) {
      result.fail("shard " + std::to_string(shard) +
                  " replicas did not apply every broadcast");
    }
  }
  rig.loops.stop_and_join();
  const double rss_mb = peak_rss_mb();
  if (const std::string failure = rig.loops.failure(); !failure.empty()) {
    result.fail("an event loop thread failed: " + failure);
  }

  // --- Output checks against the benchmark's own model.
  if (mismatches != 0) {
    result.fail(std::to_string(mismatches) + " reads outside the model:");
    for (const std::string& example : mismatch_examples) {
      result.fail("  " + example);
    }
  }
  if (!log->empty()) {
    result.fail("invariant checker recorded " + std::to_string(log->size()) +
                " violations:\n" + log->report());
  }
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const std::string where = "shard " + std::to_string(shard);
    std::uint64_t state_digest = 0;
    for (std::size_t rank = 0; rank < kReplicas; ++rank) {
      const std::string replica = where + " replica " + std::to_string(rank);
      const ReplicaBook& b = rig.book(shard, rank);
      if (b.sequence_errors != 0) {
        result.fail(replica + " applied broadcasts out of sequence");
      }
      for (std::size_t origin = 0; origin < kReplicas; ++origin) {
        if (b.last_seq[origin] != broadcasts[shard][origin]) {
          result.fail(replica + " applied " +
                      std::to_string(b.last_seq[origin]) + " of " +
                      std::to_string(broadcasts[shard][origin]) +
                      " broadcasts from rank " + std::to_string(origin));
        }
      }
      cbc::object::Value copy =
          rig.stacks[shard][rank]->replica().state();
      const cbc::object::Op fence = cbc::apps::KvStore::fence(shard, kShards);
      cbc::Reader fence_args(fence.args);
      const std::vector<std::uint8_t> digest_bytes =
          copy.apply("fence", fence_args);
      cbc::Reader digest_reader(digest_bytes);
      const std::uint64_t digest = digest_reader.u64();
      if (rank == 0) {
        state_digest = digest;
        if (fence_digests[shard].empty() ||
            digest != fence_digests[shard].back()) {
          result.fail(replica + " state digest differs from the closing "
                                "fence's digest");
        }
      } else if (digest != state_digest) {
        result.fail(replica + " state digest differs from rank 0");
      }
      if (rig.stacks[shard][rank]->checker().stable_digests() !=
          rig.stacks[shard][0]->checker().stable_digests()) {
        result.fail(replica + " stable-digest chain differs from rank 0");
      }
      std::size_t wrong = 0;
      for (std::size_t key = 0; key < kKeys; ++key) {
        const std::string name = key_name(key);
        if (map.shard_of(name) != shard) {
          continue;
        }
        const cbc::object::Op get = cbc::apps::KvStore::get(name);
        cbc::Reader get_args(get.args);
        const std::vector<std::uint8_t> bytes = copy.apply("get", get_args);
        cbc::Reader reader(bytes);
        const bool present = reader.boolean();
        const std::string value = reader.str();
        if (!present || value != value_for(key, model[key].issued)) {
          wrong += 1;
        }
      }
      if (wrong != 0) {
        result.fail(replica + " holds " + std::to_string(wrong) +
                    " keys that differ from the model's last writes");
      }
    }
    result.digest_chains.push_back(fence_digests[shard]);
  }
  if (record) {
    std::filesystem::create_directories(options.out_dir);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      for (std::size_t rank = 0; rank < kReplicas; ++rank) {
        cbc::check::SiteHistory history;
        history.object = "kv";
        history.site = cbc::kv::shard_origin(shard, kReplicas,
                                             static_cast<cbc::NodeId>(rank));
        history.ops = std::move(rig.book(shard, rank).history);
        history.save(options.out_dir + "/history-s" + std::to_string(shard) +
                     "-r" + std::to_string(rank) + ".bin");
      }
    }
  }
  result.attempted = attempted;
  result.failed = failed;
  const WindowFigures window{window_ns,
                             start,
                             clocks_end->cpu_ms - clocks_start.cpu_ms,
                             rss_mb,
                             clocks_end->steal_ms - clocks_start.steal_ms,
                             rate,
                             latency};
  std::fprintf(stderr,
               "kv-sessions: rounds=%llu requests=%llu retries=%llu "
               "resends=%llu unresolved_reads=%llu %s\n",
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(retries),
               static_cast<unsigned long long>(resends),
               static_cast<unsigned long long>(unresolved_reads),
               window.profile().c_str());
  if (!trace) {
    result.metrics = window.metrics();
    return result;
  }

  // --- Traced run: cross-checks, then the per-layer report.
  LayerInputs in;
  in.osend = true;
  in.kv = true;
  in.ops = static_cast<double>(completed);
  in.flight_records = static_cast<double>(flight_records);
  in.retries = static_cast<double>(retries);
  in.context_waits = static_cast<double>(rig.context_waits.load());
  in.context_wait_ns = rig.context_wait_ns.snapshot();
  in.wire_ns = wire_ns;
  double bytes_end = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t rank = 0; rank < kReplicas; ++rank) {
      MemberStack& stack = *rig.stacks[shard][rank];
      const std::string replica =
          "replica " + std::to_string(shard) + "/" + std::to_string(rank);
      for (const std::string& problem : stack.tap_mismatches()) {
        result.fail(replica + ": " + problem);
      }
      bytes_end += static_cast<double>(stack.udp_tap()->bytes());
      in.holdback_max = std::max<double>(
          in.holdback_max,
          static_cast<double>(rig.book(shard, rank).holdback_max));
      in.graph_nodes += static_cast<double>(stack.osend()->graph().size());
      in.log_entries += static_cast<double>(stack.osend()->log().size());
      in.sequence_len +=
          static_cast<double>(stack.checker().delivered_sequence().size());
      in.stable_snapshots +=
          static_cast<double>(stack.replica().stable_history().size());
    }
  }
  constexpr double kAll = kShards * kReplicas;
  in.bytes_sent = bytes_end - static_cast<double>(bytes_start);
  in.graph_nodes /= kAll;
  in.log_entries /= kAll;
  in.sequence_len /= kAll;
  in.stable_snapshots /= kAll;
  result.metrics = layer_metrics(in);
  return result;
}

}  // namespace perfbench
