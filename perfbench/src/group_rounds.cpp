// causal-rounds and total-rounds: a 3-member group on the `counter`
// object running rounds of the §6.1 shape over real loopback UDP.
//
// Each round, members submit 7, 7 and 6 FIFO-chained commutative `inc`
// ops (20 in total; which member submits 6 rotates), with seeded amounts
// 1..9. Once the leader (member 0) has applied all 20, it submits the
// round's sync op (`rd`); the next round starts when every member has
// applied the sync. One driver thread generates the load and posts each
// submit onto the member's event loop; each member runs on its own loop
// thread. The loop is closed: one round in flight at a time.
//
// causal-rounds runs the stack over OSendMember, total-rounds over
// ASendMember's deterministic round merge; everything else is shared.
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/counter.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kMembers = 3;
constexpr std::size_t kLeader = 0;
constexpr std::size_t kRing = 64;  // > ops one member submits per round
constexpr std::int64_t kStallNs = 60'000'000'000;  // round deadline

/// One in-flight op, indexed by (origin, seq % kRing). Rounds complete
/// before the next starts, so a slot is never reused while in flight.
struct OpSlot {
  std::atomic<std::int64_t> submit_ns{0};
  std::atomic<std::uint32_t> applied{0};
};

/// Per-member bookkeeping; written only on that member's loop thread
/// except `applied`, which the driver reads.
struct MemberBook {
  explicit MemberBook(std::int64_t window_ns)
      : latency(window_ns), rate(window_ns) {}
  std::atomic<std::uint64_t> applied{0};
  std::atomic<std::uint64_t> want{UINT64_MAX};
  std::array<std::uint64_t, kMembers> last_seq{};
  std::uint64_t sequence_errors = 0;
  std::uint64_t order_hash = 0xcbf29ce484222325ULL;
  std::uint64_t completed = 0;
  LatencySlices latency;
  RateBuckets rate;
  std::uint64_t holdback_max = 0;  // traced run: sampled hold-back depth
};

/// Members, their loops and the shared bookkeeping. The destructor stops
/// and joins every loop before any stack is destroyed.
struct GroupRig {
  explicit GroupRig(std::int64_t window_ns) : loops(kMembers) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      books.push_back(std::make_unique<MemberBook>(window_ns));
    }
  }
  ~GroupRig() { loops.stop_and_join(); }
  GroupRig(const GroupRig&) = delete;
  GroupRig& operator=(const GroupRig&) = delete;

  LoopGroup loops;
  std::vector<std::unique_ptr<MemberBook>> books;
  std::vector<std::unique_ptr<MemberStack>> stacks;
  std::array<std::array<OpSlot, kRing>, kMembers> slots;
  std::atomic<std::int64_t> window_start{INT64_MAX};
  std::atomic<std::uint64_t> submit_errors{0};
  Signal signal;

  void on_apply(std::size_t member, const cbc::Delivery& delivery) {
    MemberBook& book = *books[member];
    const std::size_t origin = delivery.sender;
    const std::uint64_t seq = delivery.id.seq;
    if (origin >= kMembers || seq != book.last_seq[origin] + 1) {
      book.sequence_errors += 1;  // duplicate, gap or stranger
    }
    if (origin >= kMembers) {
      return;
    }
    book.last_seq[origin] = std::max(book.last_seq[origin], seq);
    book.order_hash =
        (book.order_hash ^ ((static_cast<std::uint64_t>(origin) << 48) | seq)) *
        0x100000001b3ULL;
    OpSlot& slot = slots[origin][seq % kRing];
    if (slot.applied.fetch_add(1, std::memory_order_acq_rel) + 1 == kMembers) {
      const std::int64_t now = now_ns();
      const std::int64_t start = window_start.load(std::memory_order_acquire);
      const std::int64_t submitted =
          slot.submit_ns.load(std::memory_order_acquire);
      if (submitted >= start) {
        book.latency.record(now - start, now - submitted);
        book.rate.add(now - start);
        book.completed += 1;
      }
    }
    const std::uint64_t applied =
        book.applied.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (applied >= book.want.load(std::memory_order_acquire)) {
      signal.notify();
    }
  }

  /// Posts `ops` onto `member`'s loop; returns the number posted.
  void post_submits(std::size_t member, std::uint64_t first_seq,
                    std::vector<cbc::object::Op> ops) {
    loops.loop(member).post([this, member, first_seq,
                             ops = std::move(ops)] {
      std::uint64_t seq = first_seq;
      for (const cbc::object::Op& op : ops) {
        OpSlot& slot = slots[member][seq % kRing];
        slot.applied.store(0, std::memory_order_relaxed);
        slot.submit_ns.store(now_ns(), std::memory_order_release);
        const cbc::MessageId id = stacks[member]->submit(op);
        if (id.seq != seq) {
          submit_errors.fetch_add(1, std::memory_order_relaxed);
        }
        ++seq;
      }
    });
  }

  /// Sleeps until every listed member has applied `target` ops.
  bool wait_applied(const std::vector<std::size_t>& members,
                    std::uint64_t target, std::int64_t deadline_ns) {
    for (const std::size_t m : members) {
      books[m]->want.store(target, std::memory_order_release);
    }
    return signal.wait_until(deadline_ns, [&] {
      for (const std::size_t m : members) {
        if (books[m]->applied.load(std::memory_order_acquire) < target) {
          return false;
        }
      }
      return true;
    });
  }
};

std::int64_t counter_value(const cbc::object::Value& state) {
  cbc::object::Value copy = state;
  cbc::Reader no_args(std::span<const std::uint8_t>{});
  const std::vector<std::uint8_t> response = copy.apply("rd", no_args);
  cbc::Reader reader(response);
  return reader.i64();
}

}  // namespace

RunResult run_group_rounds(const RunOptions& options, bool total) {
  RunResult result;
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  GroupRig rig(window_ns);

  const auto entry = cbc::object::Catalog::instance().find("counter");
  const cbc::CommutativitySpec spec =
      cbc::object::derive_commutativity(entry->spec());
  const cbc::net::ClusterConfig config =
      cbc::net::ClusterConfig::localhost(reserve_udp_ports(kMembers));
  auto log = std::make_shared<cbc::check::ViolationLog>();
  for (std::size_t m = 0; m < kMembers; ++m) {
    StackOptions stack_options;
    stack_options.config = config;
    stack_options.id = static_cast<cbc::NodeId>(m);
    stack_options.members = config.to_view();
    stack_options.total = total;
    stack_options.trace = options.trace;
    stack_options.spec = spec;
    stack_options.initial = cbc::object::Value(entry->make());
    stack_options.log = log;
    rig.stacks.push_back(
        std::make_unique<MemberStack>(rig.loops.loop(m), stack_options));
    rig.stacks[m]->replica().set_apply_observer(
        [&rig, m](const cbc::Delivery& delivery,
                  const std::vector<std::uint8_t>&) {
          rig.on_apply(m, delivery);
        });
    if (options.trace && !total) {
      cbc::OSendMember* osend = rig.stacks[m]->osend();
      MemberBook* book = rig.books[m].get();
      rig.stacks[m]->batch_tap()->set_upcall_sampler([osend, book] {
        book->holdback_max =
            std::max<std::uint64_t>(book->holdback_max,
                                    osend->holdback_depth());
      });
    }
  }
  rig.loops.start();

  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + (total ? 2 : 1));
  std::int64_t expected_sum = 0;
  std::array<std::uint64_t, kMembers> submitted{};
  std::uint64_t total_ops = 0;
  std::uint64_t rounds = 0;
  std::vector<std::size_t> all_members;
  for (std::size_t m = 0; m < kMembers; ++m) {
    all_members.push_back(m);
  }

  // The window opens at the first timed op.
  const std::int64_t start = now_ns();
  const std::int64_t end = start + window_ns;
  const std::int64_t late = start + window_ns / 5 * 4;
  rig.window_start.store(start, std::memory_order_release);
  Tracer::instance().set_window(start, late);
  const Clocks clocks_start = Clocks::read();
  cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder();
  const std::uint64_t flight_start = recorder->total_recorded();
  std::uint64_t bytes_start = 0;
  for (auto& stack : rig.stacks) {
    if (stack->udp_tap() != nullptr) {
      bytes_start += stack->udp_tap()->bytes();
    }
  }
  std::optional<Clocks> clocks_end;
  // Sleeps until `target` ops are applied at `members`, waking once at
  // the window's end to read the clocks.
  auto wait = [&](const std::vector<std::size_t>& members,
                  std::uint64_t target) {
    if (!clocks_end) {
      if (rig.wait_applied(members, target, end)) {
        if (now_ns() >= end) {
          clocks_end = Clocks::read();
        }
        return true;
      }
      clocks_end = Clocks::read();
    }
    return rig.wait_applied(members, target, now_ns() + kStallNs);
  };

  bool stalled = false;
  while (true) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      const std::size_t count = m == rounds % kMembers ? 6 : 7;
      std::vector<cbc::object::Op> ops;
      for (std::size_t i = 0; i < count; ++i) {
        const auto amount = static_cast<std::int64_t>(rng.below(9) + 1);
        expected_sum += amount;
        ops.push_back(cbc::apps::Counter::inc(amount));
      }
      rig.post_submits(m, submitted[m] + 1, std::move(ops));
      submitted[m] += count;
      total_ops += count;
    }
    if (!wait({kLeader}, total_ops)) {
      stalled = true;
      break;
    }
    rig.post_submits(kLeader, submitted[kLeader] + 1,
                     {cbc::apps::Counter::rd()});
    submitted[kLeader] += 1;
    total_ops += 1;
    if (!wait(all_members, total_ops)) {
      stalled = true;
      break;
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
  rig.loops.stop_and_join();
  const double rss_mb = peak_rss_mb();
  if (const std::string failure = rig.loops.failure(); !failure.empty()) {
    result.fail("an event loop thread failed: " + failure);
  }

  // --- Output checks (the benchmark's own model, not the program's).
  if (stalled) {
    result.fail("a round did not complete within 60 s");
  }
  if (rig.submit_errors.load() != 0) {
    result.fail("submit returned unexpected message ids");
  }
  std::uint64_t completed = 0;
  LatencySlices latency(window_ns);
  RateBuckets rate(window_ns);
  for (std::size_t m = 0; m < kMembers; ++m) {
    MemberBook& book = *rig.books[m];
    completed += book.completed;
    latency.merge(book.latency);
    rate.merge(book.rate);
    if (book.sequence_errors != 0) {
      result.fail("member " + std::to_string(m) + " applied " +
                  std::to_string(book.sequence_errors) +
                  " ops out of per-origin sequence (duplicate or gap)");
    }
    for (std::size_t origin = 0; origin < kMembers; ++origin) {
      if (book.last_seq[origin] != submitted[origin]) {
        result.fail("member " + std::to_string(m) + " applied " +
                    std::to_string(book.last_seq[origin]) + " of " +
                    std::to_string(submitted[origin]) + " ops from member " +
                    std::to_string(origin));
      }
    }
    const std::int64_t value = counter_value(rig.stacks[m]->replica().state());
    if (value != expected_sum) {
      result.fail("member " + std::to_string(m) + " counter is " +
                  std::to_string(value) + ", submitted increments sum to " +
                  std::to_string(expected_sum));
    }
    if (rig.stacks[m]->checker().stable_digests() !=
        rig.stacks[0]->checker().stable_digests()) {
      result.fail("stable-digest chain of member " + std::to_string(m) +
                  " differs from member 0");
    }
    if (total && book.order_hash != rig.books[0]->order_hash) {
      result.fail("member " + std::to_string(m) +
                  " delivered in a different order than member 0");
    }
  }
  if (rig.stacks[0]->checker().stable_digests().size() != rounds) {
    result.fail("member 0 closed " +
                std::to_string(rig.stacks[0]->checker().stable_digests().size()) +
                " stable cycles for " + std::to_string(rounds) + " rounds");
  }
  if (!log->empty()) {
    result.fail("invariant checker recorded " + std::to_string(log->size()) +
                " violations:\n" + log->report());
  }
  result.attempted = total_ops;
  result.failed = total_ops - completed;
  result.digest_chains.push_back(rig.stacks[0]->checker().stable_digests());
  const WindowFigures window{window_ns,
                             start,
                             clocks_end->cpu_ms - clocks_start.cpu_ms,
                             rss_mb,
                             clocks_end->steal_ms - clocks_start.steal_ms,
                             rate,
                             latency};
  std::fprintf(stderr, "%s: rounds=%llu ops=%llu %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(total_ops),
               window.profile().c_str());
  if (!options.trace) {
    result.metrics = window.metrics();
    return result;
  }

  // --- Traced run: independent-path cross-checks, then per-layer report.
  LayerInputs in;
  in.osend = !total;
  in.asend = total;
  in.ops = static_cast<double>(completed);
  in.flight_records = static_cast<double>(flight_records);
  double bytes_end = 0;
  for (std::size_t m = 0; m < kMembers; ++m) {
    MemberStack& stack = *rig.stacks[m];
    for (const std::string& problem : stack.tap_mismatches()) {
      result.fail("member " + std::to_string(m) + ": " + problem);
    }
    bytes_end += static_cast<double>(stack.udp_tap()->bytes());
    if (stack.osend() != nullptr) {
      in.graph_nodes += static_cast<double>(stack.osend()->graph().size());
      in.log_entries += static_cast<double>(stack.osend()->log().size());
    } else {
      in.asend_frames_received +=
          static_cast<double>(stack.ordering().stats().received);
      in.asend_delivered +=
          static_cast<double>(stack.ordering().stats().delivered);
    }
    in.holdback_max = std::max<double>(
        in.holdback_max, static_cast<double>(rig.books[m]->holdback_max));
    in.sequence_len +=
        static_cast<double>(stack.checker().delivered_sequence().size());
    in.stable_snapshots +=
        static_cast<double>(stack.replica().stable_history().size());
  }
  in.bytes_sent = bytes_end - static_cast<double>(bytes_start);
  in.graph_nodes /= kMembers;
  in.log_entries /= kMembers;
  in.sequence_len /= kMembers;
  in.stable_snapshots /= kMembers;
  result.metrics = layer_metrics(in);
  return result;
}

}  // namespace perfbench
