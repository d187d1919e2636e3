#include "stack.h"

#include <utility>

namespace perfbench {

MemberStack::MemberStack(cbc::net::EventLoop& loop, StackOptions options)
    : options_(std::move(options)), view_(1, options_.members) {
  cbc::net::UdpTransport::Options udp_options;
  udp_options.local_ids = {options_.id};
  udp_ = std::make_unique<cbc::net::UdpTransport>(loop, options_.config,
                                                  udp_options);
  cbc::Transport* below_batching = udp_.get();
  if (options_.trace) {
    udp_tap_ = std::make_unique<TracingTransport>(*udp_, SpanName::kUdpSend,
                                                  SpanName::kUdpUpcall);
    below_batching = udp_tap_.get();
  }
  batching_ = std::make_unique<cbc::BatchingTransport>(
      *below_batching, cbc::BatchingTransport::Options{});
  cbc::Transport* below_member = batching_.get();
  if (options_.trace) {
    batch_tap_ = std::make_unique<TracingTransport>(
        *batching_, SpanName::kBatchSend, SpanName::kBatchUpcall);
    below_member = batch_tap_.get();
  }

  std::unique_ptr<cbc::BroadcastMember> member;
  if (options_.total) {
    cbc::ASendMember::Options member_options;
    member_options.reliability.enabled = true;
    member = std::make_unique<cbc::ASendMember>(
        *below_member, view_, [](const cbc::Delivery&) {}, member_options);
  } else {
    cbc::OSendMember::Options member_options;
    member_options.reliability.enabled = true;
    member_options.reliability.oob_handler = options_.oob;
    auto osend = std::make_unique<cbc::OSendMember>(
        *below_member, view_, [](const cbc::Delivery&) {}, member_options);
    osend_ = osend.get();
    member = std::move(osend);
  }
  ordering_ = member.get();
  if (options_.trace) {
    member = std::make_unique<TracingLayer>(std::move(member),
                                            SpanName::kMemberBroadcast,
                                            SpanName::kMemberDeliver);
  }

  cbc::check::InvariantChecker::Options check_options;
  check_options.expect_total_order = options_.total;
  check_options.stable_spec = options_.spec;
  check_options.digest_exempt_kinds = {"nop"};
  auto checker = std::make_unique<cbc::check::InvariantChecker>(
      std::move(member), options_.log, check_options);
  checker_ = checker.get();
  std::unique_ptr<cbc::BroadcastMember> top = std::move(checker);
  if (options_.trace) {
    auto tap = std::make_unique<TracingLayer>(std::move(top),
                                              SpanName::kCheckerBroadcast,
                                              SpanName::kCheckerDeliver);
    checker_tap_ = tap.get();
    top = std::move(tap);
  }
  replica_ = std::make_unique<Replica>(
      std::move(top), options_.spec,
      cbc::FrontEndManager::Options{.fifo_chain = true},
      std::move(options_.initial));
}

cbc::MessageId MemberStack::submit(const cbc::object::Op& op) {
  Span span(SpanName::kReplicaSubmit);
  const cbc::MessageId id = replica_->submit(op);
  span.set_id(span_id(id));
  return id;
}

std::vector<std::string> MemberStack::tap_mismatches() const {
  std::vector<std::string> problems;
  // Every datagram the udp tap passed down is one UdpTransport accounted
  // for: sent, refused by the kernel (full socket buffer) or oversize.
  const cbc::net::UdpTransport::Stats udp = udp_->stats();
  const std::uint64_t accounted =
      udp.datagrams_sent + udp.send_errors + udp.oversize_drops;
  if (udp_tap_->sends() != accounted) {
    problems.push_back("udp tap passed " + std::to_string(udp_tap_->sends()) +
                       " datagrams, UdpTransport accounted for " +
                       std::to_string(accounted) + " (" +
                       std::to_string(udp.datagrams_sent) + " sent)");
  }
  const std::uint64_t delivered = ordering_->stats().delivered;
  if (checker_tap_->deliveries() != delivered) {
    problems.push_back("replica tap counted " +
                       std::to_string(checker_tap_->deliveries()) +
                       " applications, ordering member delivered " +
                       std::to_string(delivered));
  }
  return problems;
}

LoopGroup::LoopGroup(std::size_t loops) {
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<cbc::net::EventLoop>());
  }
}

void LoopGroup::start() {
  for (auto& loop : loops_) {
    cbc::net::EventLoop* raw = loop.get();
    threads_.emplace_back([this, raw] {
      try {
        raw->run();
      } catch (const std::exception& error) {
        const std::lock_guard<std::mutex> guard(failure_mutex_);
        failure_ = error.what();
      }
    });
  }
  for (auto& loop : loops_) {
    while (!loop->running()) {
      std::this_thread::yield();
    }
  }
}

void LoopGroup::stop_and_join() {
  for (auto& loop : loops_) {
    loop->stop();
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
}

std::string LoopGroup::failure() const {
  const std::lock_guard<std::mutex> guard(failure_mutex_);
  return failure_;
}

}  // namespace perfbench
