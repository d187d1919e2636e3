// Command-line scanning shared by the cbc binaries: one cursor over argv
// whose numeric values are parsed strictly. std::stoull accepts "-1" (as
// 2^64-1) and "7abc" (as 7); a flag value here is decimal digits and
// nothing else, inside the range the flag allows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/types.h"

namespace cbc {

/// `text` as a decimal integer in [min, max], or nullopt: no sign, no
/// whitespace, no trailing characters, no overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = UINT64_MAX);

/// Walks argv one flag at a time. Every malformed, missing or unknown
/// value throws InvalidArgument naming the program and the flag; the
/// binaries report it as a usage error.
class FlagCursor {
 public:
  FlagCursor(std::string program, int argc, char** argv, int first = 1)
      : program_(std::move(program)), argc_(argc), argv_(argv), next_(first) {}

  /// Advances to the next flag; false once argv is exhausted.
  bool next();
  [[nodiscard]] const std::string& flag() const { return flag_; }
  /// The argument following the flag.
  std::string value();
  /// The following argument as a decimal integer in [min, max].
  std::uint64_t number(std::uint64_t min = 0, std::uint64_t max = UINT64_MAX);
  /// A count: number() capped below 2^63, so it meets signed arithmetic.
  std::uint64_t count(std::uint64_t min = 0) { return number(min, INT64_MAX); }
  /// A member id: any NodeId but the kNoNode sentinel.
  NodeId node_id() { return static_cast<NodeId>(number(0, kNoNode - 1)); }
  /// Milliseconds, capped so that scaling to microseconds cannot overflow.
  std::int64_t millis(std::uint64_t min = 0) {
    return static_cast<std::int64_t>(number(min, INT64_MAX / 1000));
  }
  [[noreturn]] void unknown() const;

 private:
  std::string program_;
  int argc_;
  char** argv_;
  int next_;
  std::string flag_;
};

}  // namespace cbc
