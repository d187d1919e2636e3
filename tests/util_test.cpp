// Unit tests for src/util: ensure, rng, serde, stats, logging, atomic
// file writes, flag parsing.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.h"
#include "util/ensure.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"

namespace cbc {
namespace {

// ---------- ensure ----------

TEST(Ensure, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_NO_THROW(protocol_ensure(true, "ok"));
}

TEST(Ensure, FailingEnsureThrowsLogicError) {
  EXPECT_THROW(ensure(false, "broken"), LogicError);
}

TEST(Ensure, FailingRequireThrowsInvalidArgument) {
  EXPECT_THROW(require(false, "bad arg"), InvalidArgument);
}

TEST(Ensure, FailingProtocolEnsureThrowsProtocolViolation) {
  EXPECT_THROW(protocol_ensure(false, "protocol broken"), ProtocolViolation);
}

TEST(Ensure, MessageContainsTextAndLocation) {
  try {
    ensure(false, "xyzzy-marker");
    FAIL() << "expected throw";
  } catch (const LogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("xyzzy-marker"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

// ---------- rng ----------

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() != b.next_u64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.next_bool(0.3) ? 1 : 0;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRoughlyRequestedMean) {
  Rng rng(23);
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double v = rng.next_exponential(50.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / trials, 50.0, 2.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.split();
  // The child stream should differ from the parent continuation.
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next_u64() != child.next_u64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleChangesOrderForLongVectors) {
  Rng rng(37);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);
}

// ---------- serde ----------

TEST(Serde, ScalarRoundTrip) {
  Writer writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFULL);
  writer.i64(-42);
  writer.f64(3.14159);
  writer.boolean(true);
  writer.boolean(false);

  Reader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.14159);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, StringRoundTrip) {
  Writer writer;
  writer.str("hello");
  writer.str("");
  writer.str(std::string(1000, 'x'));
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_EQ(reader.str(), std::string(1000, 'x'));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, BlobAndVecRoundTrip) {
  Writer writer;
  const std::vector<std::uint8_t> blob{1, 2, 3, 255};
  writer.blob(blob);
  writer.u64_vec({10, 20, 30});
  writer.u64_vec({});
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.blob(), blob);
  EXPECT_EQ(reader.u64_vec(), (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_TRUE(reader.u64_vec().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, TruncatedInputThrows) {
  Writer writer;
  writer.u64(7);
  const auto& bytes = writer.bytes();
  Reader reader(std::span<const std::uint8_t>(bytes.data(), 4));
  EXPECT_THROW(reader.u64(), SerdeError);
}

TEST(Serde, TruncatedStringThrows) {
  Writer writer;
  writer.u32(100);  // claims a 100-byte string with no body
  Reader reader(writer.bytes());
  EXPECT_THROW(reader.str(), SerdeError);
}

TEST(Serde, EmptyReaderIsExhausted) {
  Reader reader(std::span<const std::uint8_t>{});
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_THROW(reader.u8(), SerdeError);
}

TEST(Serde, NegativeDoublesAndSpecials) {
  Writer writer;
  writer.f64(-0.0);
  writer.f64(1e300);
  writer.f64(-1e-300);
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.f64(), -0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), 1e300);
  EXPECT_DOUBLE_EQ(reader.f64(), -1e-300);
}

// ---------- stats ----------

TEST(Histogram, EmptyBehaviour) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW((void)h.mean(), InvalidArgument);
  EXPECT_EQ(h.summary(), "n=0");
}

// Regression: percentile/summary must be well-defined at n=0 — metric
// plumbing asks for percentiles of streams that have seen nothing yet,
// and a throwing accessor would turn an idle node's scrape into a crash.
TEST(Histogram, EmptyPercentileIsZeroNotAThrow) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
  // Out-of-range q still rejects, empty or not.
  EXPECT_THROW((void)h.percentile(-1), InvalidArgument);
  EXPECT_THROW((void)h.percentile(101), InvalidArgument);
  EXPECT_EQ(h.summary(), "n=0");
  // Adding then resetting returns to the well-defined empty answers.
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.summary(), "n=0");
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    h.add(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_NEAR(h.stddev(), std::sqrt(2.0), 1e-9);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.add(static_cast<double>(i));
  }
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
  EXPECT_GT(h.percentile(99), 98.0);
}

TEST(Histogram, PercentileRejectsOutOfRange) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW((void)h.percentile(-1), InvalidArgument);
  EXPECT_THROW((void)h.percentile(101), InvalidArgument);
}

TEST(Histogram, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  a.reset();
  EXPECT_TRUE(a.empty());
}

TEST(Counters, IncrementAndQuery) {
  Counters c;
  EXPECT_EQ(c.get("missing"), 0u);
  c.inc("msgs");
  c.inc("msgs", 4);
  c.inc("drops");
  EXPECT_EQ(c.get("msgs"), 5u);
  EXPECT_EQ(c.get("drops"), 1u);
  const std::string summary = c.summary();
  EXPECT_NE(summary.find("msgs=5"), std::string::npos);
  EXPECT_NE(summary.find("drops=1"), std::string::npos);
}

// ---------- logging ----------

TEST(Logging, SinkReceivesEnabledLevels) {
  std::vector<std::pair<LogLevel, std::string>> records;
  LogConfig::set_sink([&records](LogLevel level, std::string_view message) {
    records.emplace_back(level, std::string(message));
  });
  LogConfig::set_min_level(LogLevel::kInfo);
  Log(LogLevel::kDebug) << "hidden";
  Log(LogLevel::kInfo) << "shown " << 42;
  Log(LogLevel::kError) << "error";
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].second, "shown 42");
  EXPECT_EQ(records[1].first, LogLevel::kError);
  // Restore defaults for other tests.
  LogConfig::set_min_level(LogLevel::kWarn);
  LogConfig::set_sink([](LogLevel, std::string_view) {});
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(log_level_name(LogLevel::kError), "ERROR");
}

// ---------- atomic file writes ----------

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

TEST(AtomicFile, ReplacesContentsAndLeavesNoTmpBehind) {
  const std::string path = testing::TempDir() + "atomic_file_ok.txt";
  ASSERT_TRUE(write_file_atomic(path, std::string_view("first\n")));
  ASSERT_TRUE(write_file_atomic(path, std::string_view("second\n")));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "second\n");
  EXPECT_FALSE(file_exists(path + ".tmp." + std::to_string(::getpid())));
}

TEST(AtomicFile, MissingDirectoryReportsFailureAndLeavesNoFile) {
  const std::string dir = testing::TempDir() + "atomic_file_no_such_dir";
  const std::string path = dir + "/report.txt";
  ASSERT_FALSE(file_exists(dir));
  EXPECT_FALSE(write_file_atomic(path, std::string_view("done=1\n")));
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp." + std::to_string(::getpid())));
  EXPECT_FALSE(file_exists(dir));
}

TEST(AtomicFile, FailedRenameRemovesTheTmpFile) {
  // A directory in the target's place makes rename(2) fail after the
  // tmp file was fully written: the tmp must not be left behind.
  const std::string path = testing::TempDir() + "atomic_file_dir_target";
  ::rmdir(path.c_str());
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  EXPECT_FALSE(write_file_atomic(path, std::string_view("x")));
  EXPECT_FALSE(file_exists(path + ".tmp." + std::to_string(::getpid())));
  ::rmdir(path.c_str());
}

// ---------- flag parsing ----------

TEST(Flags, ParseUnsignedAcceptsPlainDecimal) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("42"), 42u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_unsigned("65535", 0, 65535), 65535u);
  EXPECT_EQ(parse_unsigned("1", 1, 1), 1u);
}

TEST(Flags, ParseUnsignedRejectsSignsJunkAndOverflow) {
  // std::stoull takes "-1" as 2^64-1 and std::stoul takes "7abc" as 7.
  for (const char* bad : {"-1", "+1", "-0", "7abc", "", " 7", "7 ", "0x10",
                          "1e3", "3.0", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_unsigned(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Flags, ParseUnsignedEnforcesTheRange) {
  EXPECT_FALSE(parse_unsigned("65536", 0, 65535).has_value());
  EXPECT_FALSE(parse_unsigned("0", 1, 10).has_value());
  EXPECT_FALSE(parse_unsigned("11", 1, 10).has_value());
}

TEST(Flags, CursorReportsBadValuesAsInvalidArgument) {
  std::vector<std::string> words = {"prog", "--rounds", "-1", "--ops", "3",
                                    "--bogus", "--id"};
  std::vector<char*> argv;
  for (std::string& word : words) {
    argv.push_back(word.data());
  }
  FlagCursor cursor("prog", static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(cursor.next());
  EXPECT_EQ(cursor.flag(), "--rounds");
  EXPECT_THROW(cursor.number(), InvalidArgument);
  ASSERT_TRUE(cursor.next());
  EXPECT_EQ(cursor.flag(), "--ops");
  EXPECT_EQ(cursor.number(1, 10), 3u);
  ASSERT_TRUE(cursor.next());
  EXPECT_THROW(cursor.unknown(), InvalidArgument);
  ASSERT_TRUE(cursor.next());
  EXPECT_THROW(cursor.value(), InvalidArgument);  // --id has no value
  EXPECT_FALSE(cursor.next());
}

}  // namespace
}  // namespace cbc
