// One group member's production stack, assembled from the library's
// public classes with the options cbc_node and cbc_kv set:
//
//   net::UdpTransport            (real loopback sockets, EventLoop)
//     [udp tap]                  traced run only
//   BatchingTransport            (default options)
//     [batch tap]                traced run only
//   OSendMember | ASendMember    (reliability on, metrics hooks off)
//     [member tap]               traced run only
//   check::InvariantChecker      (digest_exempt_kinds = {"nop"})
//     [checker tap]              traced run only
//   ReplicaNode<object::Value>   (FrontEndManager fifo_chain = true)
//
// Option defaults such as OSendMember's record_graph/keep_delivery_log
// are left as production ships them.
//
// Lifetime: BatchingTransport and ReliableEndpoint arm loop timers that
// capture `this`, so every EventLoop hosting a stack must be stopped and
// its thread joined before the stack is destroyed (LoopGroup does this).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "causal/osend.h"
#include "check/invariant_checker.h"
#include "check/violation.h"
#include "group/group_view.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "object/value.h"
#include "replica/replica_node.h"
#include "total/asend.h"
#include "trace.h"
#include "transport/batching.h"

namespace perfbench {

using Replica = cbc::ReplicaNode<cbc::object::Value>;

struct StackOptions {
  cbc::net::ClusterConfig config;
  cbc::NodeId id = 0;
  std::vector<cbc::NodeId> members;  ///< causal group view
  bool total = false;                ///< ASend instead of OSend
  bool trace = false;                ///< insert the tracing decorators
  cbc::CommutativitySpec spec;
  cbc::object::Value initial;
  std::shared_ptr<cbc::check::ViolationLog> log;
  /// Reliable-layer out-of-band handler (kv client requests).
  std::function<void(cbc::NodeId, std::span<const std::uint8_t>)> oob;
};

class MemberStack {
 public:
  MemberStack(cbc::net::EventLoop& loop, StackOptions options);
  MemberStack(const MemberStack&) = delete;
  MemberStack& operator=(const MemberStack&) = delete;

  [[nodiscard]] Replica& replica() { return *replica_; }
  [[nodiscard]] cbc::check::InvariantChecker& checker() { return *checker_; }
  [[nodiscard]] cbc::BroadcastMember& ordering() { return *ordering_; }
  [[nodiscard]] cbc::OSendMember* osend() { return osend_; }

  // Traced run only (nullptr otherwise).
  [[nodiscard]] TracingTransport* udp_tap() { return udp_tap_.get(); }
  [[nodiscard]] TracingTransport* batch_tap() { return batch_tap_.get(); }

  /// Submits through the replica; a span in the traced run.
  cbc::MessageId submit(const cbc::object::Op& op);

  /// Traced run, after the loop stopped: compares the decorators' counts
  /// with the counts the layers keep themselves. Empty when they agree.
  [[nodiscard]] std::vector<std::string> tap_mismatches() const;

 private:
  StackOptions options_;
  std::unique_ptr<cbc::net::UdpTransport> udp_;
  std::unique_ptr<TracingTransport> udp_tap_;
  std::unique_ptr<cbc::BatchingTransport> batching_;
  std::unique_ptr<TracingTransport> batch_tap_;
  cbc::GroupView view_;  // ASendMember keeps a reference: outlives replica_
  cbc::BroadcastMember* ordering_ = nullptr;       // owned via replica_
  cbc::OSendMember* osend_ = nullptr;              // owned via replica_
  cbc::check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  TracingLayer* checker_tap_ = nullptr;            // owned via replica_
  std::unique_ptr<Replica> replica_;
};

/// Event loops on their own threads. stop_and_join() must run before any
/// stack hosted on these loops is destroyed; the destructor calls it as a
/// backstop.
class LoopGroup {
 public:
  explicit LoopGroup(std::size_t loops);
  ~LoopGroup() { stop_and_join(); }
  LoopGroup(const LoopGroup&) = delete;
  LoopGroup& operator=(const LoopGroup&) = delete;

  [[nodiscard]] cbc::net::EventLoop& loop(std::size_t i) { return *loops_[i]; }
  void start();
  void stop_and_join();
  /// What ended a loop thread by exception (empty when none did).
  [[nodiscard]] std::string failure() const;

 private:
  std::vector<std::unique_ptr<cbc::net::EventLoop>> loops_;
  std::vector<std::thread> threads_;
  mutable std::mutex failure_mutex_;
  std::string failure_;  // guarded by failure_mutex_
};

}  // namespace perfbench
