// Multi-process cluster tests: N forked cbc_node processes exchanging
// 10k+ real UDP datagrams on loopback, one member killed and restarted
// mid-run, survivors asserted to agree on the stable-point digest chain —
// the paper's "identical state with no agreement protocol" claim, checked
// end-to-end on a real kernel network path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/install.h"
#include "check/history.h"
#include "check/history_checker.h"
#include "common/cluster_harness.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "obs/hooks.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

namespace cbc {
namespace {

using testkit::ClusterHarness;
using testkit::NodeReport;

/// Minimal HTTP GET against a node's live metrics endpoint; returns the
/// whole response (headers + body), or "" on any failure.
std::string http_get(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7F000001);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Value of one plain `name value` metric line ("" when absent).
std::string metric_value(const std::string& page, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = page.find(needle);
  if (at == std::string::npos) {
    return {};
  }
  const std::size_t start = at + needle.size();
  return page.substr(start, page.find('\n', start) - start);
}

void expect_clean(const NodeReport& report) {
  EXPECT_EQ(report.at("violations"), "0");
  EXPECT_EQ(report.at("malformed"), "0");
}

TEST(Cluster, ThreeNodesConvergeOnLoopback) {
  ClusterHarness cluster({.nodes = 3, .rounds = 10, .ops_per_round = 20});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport leader = *cluster.report(0);
  expect_clean(leader);
  EXPECT_EQ(leader.at("digest_count"), "10");
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    // Same number of stable points, same chained digest: the whole
    // delivered history agreed at every member.
    EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
    EXPECT_EQ(report.at("digest"), leader.at("digest"));
    EXPECT_EQ(report.at("delivered"), leader.at("delivered"));
    EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
  }
}

TEST(Cluster, TwoGroupsSideBySide) {
  // Two INDEPENDENT causal groups hosted by one harness: each group gets
  // its own reserved port block and artifact directory, so neither can
  // collide with (or even observe) the other. Regression for the old
  // fixed-port-range assumption — a second cluster used to race the
  // first for the same addresses.
  ClusterHarness cluster(
      {.groups = 2, .nodes = 3, .rounds = 5, .ops_per_round = 10});
  cluster.start_all();
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(cluster.wait_for_report(g, id, /*require_done=*/true))
          << "group " << g << " node " << id << " never finished";
    }
  }
  cluster.terminate_all();
  for (std::size_t g = 0; g < 2; ++g) {
    const NodeReport leader = *cluster.report(g, 0);
    expect_clean(leader);
    EXPECT_EQ(leader.at("digest_count"), "5");
    for (std::size_t id = 1; id < 3; ++id) {
      const NodeReport report = *cluster.report(g, id);
      expect_clean(report);
      EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
      EXPECT_EQ(report.at("digest"), leader.at("digest"));
      EXPECT_EQ(report.at("delivered"), leader.at("delivered"));
      EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
    }
  }
  // Each group saw ONLY its own 3 members' traffic: a group that
  // received a stranger's datagrams would count them as malformed, and
  // delivery counts higher than 3 nodes x 5 rounds x 11 ops would mean
  // cross-group leakage.
  EXPECT_NE(cluster.config_path(0), cluster.config_path(1));
  EXPECT_NE(cluster.report_path(0, 0), cluster.report_path(1, 0));
}

TEST(Cluster, SurvivorsConvergeAfterDepartureAndRestart) {
  // 50 rounds x 3 nodes x 101 broadcasts per round per node: well over
  // 10k messages through the kernel. Node 2 departs mid-run and comes
  // back as an observer; the two survivors must still agree exactly.
  ClusterHarness cluster({.nodes = 3, .rounds = 50, .ops_per_round = 100});
  cluster.start_all();

  // Let the run get going, then take node 2 out gracefully.
  ASSERT_TRUE(cluster.wait_for_progress(2, "round", 3));
  cluster.signal_departure(2);
  ASSERT_TRUE(cluster.wait_for_report(2, /*require_done=*/false))
      << "departing node never wrote its report";
  const NodeReport departed = *cluster.report(2);
  EXPECT_EQ(departed.at("role"), "departed");
  cluster.terminate_node(2);

  // Restart the same member id as an observer: its reliability state died
  // with the old process, so it cannot rejoin the causal past, but its
  // presence (sockets up, datagrams flowing) must not disturb survivors.
  cluster.start_node(2, {"--observer"});

  for (std::size_t id = 0; id < 2; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "survivor " << id << " never finished";
  }
  cluster.terminate_all();

  const NodeReport leader = *cluster.report(0);
  const NodeReport worker = *cluster.report(1);
  expect_clean(leader);
  expect_clean(worker);
  EXPECT_EQ(leader.at("done"), "1");
  EXPECT_EQ(worker.at("done"), "1");
  EXPECT_EQ(leader.at("digest_count"), "50");
  EXPECT_EQ(worker.at("digest_count"), "50");
  EXPECT_EQ(worker.at("digest"), leader.at("digest"));
  EXPECT_EQ(worker.at("delivered"), leader.at("delivered"));
  EXPECT_EQ(worker.at("stable_state"), leader.at("stable_state"));

  // The departed member's prefix agreed too: its digest chain at cycle k
  // is a prefix of the survivors' chain, so its own run was clean.
  EXPECT_EQ(departed.at("violations"), "0");

  // Volume check: each survivor delivered 10k+ messages.
  EXPECT_GE(std::stoull(leader.at("delivered")), 10'000u);
}

TEST(Cluster, KilledMemberRecoversFromCheckpointAndRejoins) {
  // Crash-recovery acceptance: node 2 drains at its quiesce round, is
  // SIGKILLed (no graceful departure, no final report), and relaunched
  // with --recover. The fresh process fetches a survivor's stable-point
  // checkpoint over the state-transfer frames, restores replica + checker
  // + sequence numbers from it, and rejoins through leader admission.
  // Every member — including the recovered one — must finish with the
  // identical stable-point digest chain and zero checker violations.
  constexpr std::uint64_t kRounds = 8;
  constexpr std::int64_t kQuiesceRound = 2;
  ClusterHarness cluster({.nodes = 3,
                          .rounds = kRounds,
                          .ops_per_round = 10,
                          .checkpoints = true,
                          .suspect_timeout_ms = 4'000});
  cluster.start_node(0);
  cluster.start_node(1);
  cluster.start_node(2,
                     {"--quiesce-at-round", std::to_string(kQuiesceRound)});

  // Safe-kill ordering: the victim must report quiesced=1 (its own sync
  // delivered, reliability layer drained) AND both survivors must have
  // delivered the victim's quiesce-round sync, so the transfer peer's
  // checkpoint frontier covers every message node 2 ever sent. Killing
  // earlier would make the recovered process reuse sequence numbers of
  // its own uncovered messages, which peers would then dup-drop. (Round
  // K+1 cannot close while the quiesced victim is alive — its marker is
  // missing — so K+1 delivered syncs is also the most that can be
  // awaited here.)
  ASSERT_TRUE(cluster.wait_for_progress(2, "quiesced", 1));
  ASSERT_TRUE(cluster.wait_for_progress(0, "syncs", kQuiesceRound + 1));
  ASSERT_TRUE(cluster.wait_for_progress(1, "syncs", kQuiesceRound + 1));
  cluster.kill_node(2);

  cluster.start_node(2, {"--recover"});
  ASSERT_TRUE(cluster.wait_for_progress(2, "admitted", 1))
      << "recovered node was never re-admitted by the leader";
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();

  const NodeReport leader = *cluster.report(0);
  expect_clean(leader);
  EXPECT_EQ(leader.at("digest_count"), std::to_string(kRounds));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
    EXPECT_EQ(report.at("digest"), leader.at("digest"));
    EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
  }
  EXPECT_EQ(cluster.report(2)->at("recovered"), "1");
}

TEST(Cluster, TotalOrderSmokeConverges) {
  // ASend deterministic-merge total order over real UDP: one round of
  // the round driver; the merged sequence (and thus the digest) must be
  // identical everywhere.
  ClusterHarness cluster(
      {.nodes = 3, .rounds = 1, .ops_per_round = 30, .discipline = "total"});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport first = *cluster.report(0);
  expect_clean(first);
  // Each member's 30 ops and round marker, plus the leader's sync.
  EXPECT_EQ(first.at("delivered"), std::to_string(3 * (30 + 1) + 1));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest"), first.at("digest"));
    EXPECT_EQ(report.at("delivered"), first.at("delivered"));
  }
}

TEST(Cluster, TotalOrderConvergesAcrossPartitionHeal) {
  // ASend total order under scripted adversity: a partition isolates
  // node 2 from 200ms to 1.7s while the round's submissions are in
  // flight, plus light loss on every link. Reliability must retransmit
  // across the heal and the deterministic merge must still produce one
  // identical sequence (and digest) at every member.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 1,
                          .ops_per_round = 20,
                          .discipline = "total",
                          .fault_plan = "seed 7\n"
                                        "link * * drop 0.05\n"
                                        "partition 200000 1500000 0,1|2\n"});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport first = *cluster.report(0);
  expect_clean(first);
  // Each member's 20 ops and round marker, plus the leader's sync.
  EXPECT_EQ(first.at("delivered"), std::to_string(3 * (20 + 1) + 1));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest"), first.at("digest"));
    EXPECT_EQ(report.at("delivered"), first.at("delivered"));
  }
}

TEST(Cluster, TotalOrderRunsEveryRound) {
  // --discipline total runs --rounds rounds of the same round driver as
  // the causal discipline (markers plus the leader's sync), and reports
  // done only after the last round's sync.
  ClusterHarness cluster(
      {.nodes = 3, .rounds = 3, .ops_per_round = 10, .discipline = "total"});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport first = *cluster.report(0);
  expect_clean(first);
  EXPECT_EQ(first.at("rounds_started"), "3");
  EXPECT_EQ(first.at("syncs"), "3");
  EXPECT_EQ(first.at("digest_count"), "3");
  EXPECT_EQ(first.at("delivered"), std::to_string(3 * (3 * (10 + 1) + 1)));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("rounds_started"), "3");
    EXPECT_EQ(report.at("syncs"), "3");
    EXPECT_EQ(report.at("digest"), first.at("digest"));
    EXPECT_EQ(report.at("delivered"), first.at("delivered"));
  }
}

/// Runs cbc_node with `args` (stderr silenced) and returns its exit
/// status, or -1 when it did not exit normally.
int run_node(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDERR_FILENO);
    }
    std::vector<std::string> words = {CBC_NODE_BIN};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& word : words) {
      argv.push_back(word.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cluster, MalformedNumericFlagsAreUsageErrors) {
  // std::stoull("-1") is 2^64-1, which once made `--rounds -1` run
  // forever. Flags are parsed before the config is read, so a usage
  // error (2) is told apart from the missing config file (1).
  const std::string missing = "/nonexistent/cbc_node_config.txt";
  EXPECT_EQ(run_node({"--config", missing, "--id", "0", "--rounds", "-1"}),
            2);
  EXPECT_EQ(run_node({"--config", missing, "--id", "0", "--ops", "7abc"}), 2);
  EXPECT_EQ(run_node({"--config", missing, "--id", "-1"}), 2);
  EXPECT_EQ(run_node({"--config", missing, "--id", "0", "--metrics-port",
                      "70000"}),
            2);
  EXPECT_EQ(run_node({"--config", missing, "--id", "0", "--rounds", "1"}), 1);
}

TEST(Cluster, RecordedHistoriesSatisfyCausalConsistencyForEveryObject) {
  // The offline oracle closes the loop on the live protocol: every
  // catalog object runs a real 3-process cluster with --record-history,
  // and the recorded per-site histories must pass CC, CM, and CCv when
  // replayed black-box against the object's own sequential spec.
  apps::install_objects();
  for (const std::string& name : object::Catalog::instance().names()) {
    ClusterHarness cluster({.nodes = 3,
                            .rounds = 3,
                            .ops_per_round = 5,
                            .object = name,
                            .record_history = true});
    cluster.start_all();
    for (std::size_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
          << name << ": node " << id << " never finished";
    }
    cluster.terminate_all();  // SIGTERM flushes each node's history file

    std::vector<check::SiteHistory> sites;
    for (std::size_t id = 0; id < 3; ++id) {
      sites.push_back(check::SiteHistory::load(cluster.history_path(id)));
      EXPECT_EQ(sites.back().object, name);
      EXPECT_FALSE(sites.back().ops.empty());
    }
    const auto entry = object::Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    const object::SequentialSpec spec = entry->spec();
    const check::HistoryChecker checker(
        spec, object::derive_commutativity(spec));
    const check::HistoryChecker::Result result = checker.check(sites);
    EXPECT_TRUE(result.cc) << name << ": " << result.summary();
    EXPECT_TRUE(result.cm) << name << ": " << result.summary();
    EXPECT_TRUE(result.ccv) << name << ": " << result.summary();
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << name << ": " << violation;
    }
  }
}

TEST(Cluster, ObservabilityScrapeAndMergedTrace) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DCBC_OBS=OFF)";
  }
  // Acceptance run for the observability layer: three traced processes,
  // live Prometheus scrape off a running node's event loop, and one
  // merged Chrome trace with deliver spans on every process row and
  // cross-message Occurs_After flow arrows.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 5,
                          .ops_per_round = 10,
                          .observability = true});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }

  // Live scrape while the nodes are still serving (core counters must be
  // nonzero after a completed workload).
  const std::optional<int> port = cluster.metrics_port(1);
  ASSERT_TRUE(port.has_value()) << "report carries no metrics_port";
  const std::string page = http_get(*port);
  ASSERT_NE(page.find("200 OK"), std::string::npos) << page;
  ASSERT_NE(page.find("# TYPE"), std::string::npos);
  for (const std::string metric :
       {"cbc_osend_delivered", "cbc_udp_datagrams_sent",
        "cbc_batch_messages_in", "cbc_check_deliveries",
        "cbc_stack_deliveries"}) {
    const std::string value = metric_value(page, metric);
    ASSERT_FALSE(value.empty()) << metric << " missing from scrape";
    EXPECT_GT(std::stod(value), 0.0) << metric;
  }
  // The histogram rides the same page.
  EXPECT_NE(page.find("cbc_stack_submit_to_deliver_us_count"),
            std::string::npos);

  // The snapshot timer wrote the same page to disk.
  EXPECT_TRUE(
      ClusterHarness::parse_kv_file(cluster.report_path(1)).has_value());
  std::ifstream snapshot(cluster.metrics_snapshot_path(1));
  EXPECT_TRUE(static_cast<bool>(snapshot));

  // SIGTERM flushes each node's trace; merge and assert the causal
  // structure survived the multi-process round trip.
  cluster.terminate_all();
  const std::string merged = obs::merge_trace_files(
      {cluster.trace_path(0), cluster.trace_path(1), cluster.trace_path(2)});
  const obs::JsonValue doc = obs::parse_chrome_trace(merged);
  const obs::TraceSummary summary = obs::summarize_chrome_trace(doc);
  EXPECT_GT(summary.events, 0u);
  for (std::uint32_t pid = 0; pid < 3; ++pid) {
    const auto row = summary.deliver_events.find(pid);
    ASSERT_NE(row, summary.deliver_events.end())
        << "no deliver spans on process row " << pid;
    EXPECT_GT(row->second, 0u);
  }
  EXPECT_GT(summary.occurs_after_flows, 0u)
      << "merged trace carries no Occurs_After flow edges";
}

TEST(Cluster, FlightDumpOfKilledNodeMergesIntoSurvivorTimeline) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DCBC_OBS=OFF)";
  }
  // The postmortem claim end to end: a member dies by SIGKILL — no
  // signal handler, no trace flush, no report — and its file-backed
  // flight ring still decodes into the same timeline as the survivors'
  // live traces.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 5,
                          .ops_per_round = 10,
                          .observability = true});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.kill_node(2);
  cluster.terminate_node(0);
  cluster.terminate_node(1);

  // The killed node's mapping survives the SIGKILL verbatim.
  std::ifstream in(cluster.flight_path(2), std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in)) << "no flight file for killed node";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw = buffer.str();
  const std::vector<std::uint8_t> bytes(raw.begin(), raw.end());
  const obs::FlightDump dump = obs::decode_flight_dump(bytes);
  EXPECT_EQ(dump.node_id, 2u);
  EXPECT_EQ(dump.role, 0u);
  ASSERT_FALSE(dump.records.empty());
  bool saw_submit = false;
  bool saw_deliver = false;
  for (const obs::FlightRecord& record : dump.records) {
    saw_submit = saw_submit || record.event == obs::FlightEvent::kSubmit;
    saw_deliver = saw_deliver || record.event == obs::FlightEvent::kDeliver;
  }
  EXPECT_TRUE(saw_deliver) << "killed node's ring has no deliver records";

  // Postmortem + survivors merge into one timeline with all three
  // process rows populated.
  const std::string postmortem =
      obs::render_trace_events(obs::flight_to_trace_events(dump));
  std::vector<obs::JsonValue> docs;
  docs.push_back(obs::parse_chrome_trace(postmortem));
  for (std::size_t id = 0; id < 2; ++id) {
    std::ifstream trace(cluster.trace_path(id));
    std::ostringstream text;
    text << trace.rdbuf();
    docs.push_back(obs::parse_chrome_trace(text.str()));
  }
  const std::string merged = obs::merge_trace_docs(docs);
  const obs::TraceSummary summary =
      obs::summarize_chrome_trace(obs::parse_chrome_trace(merged));
  for (std::uint32_t pid = 0; pid < 3; ++pid) {
    const auto row = summary.deliver_events.find(pid);
    ASSERT_NE(row, summary.deliver_events.end())
        << "no deliver spans on process row " << pid;
    EXPECT_GT(row->second, 0u);
  }

  // The same documents feed the cross-node latency decomposition.
  const obs::LatencyReport report = obs::latency_report(docs);
  EXPECT_GT(report.deliver.count, 0u);
  EXPECT_GT(report.hold.count, 0u);
  EXPECT_GE(report.deliver.p99, report.deliver.p50);
}

}  // namespace
}  // namespace cbc
