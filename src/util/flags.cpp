#include "util/flags.h"

#include <charconv>

#include "util/ensure.h"

namespace cbc {

std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                            std::uint64_t min,
                                            std::uint64_t max) {
  // from_chars into an unsigned type already refuses '-' and '+'; an
  // empty match, a partial match or an overflow all fail below.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value < min ||
      value > max) {
    return std::nullopt;
  }
  return value;
}

bool FlagCursor::next() {
  if (next_ >= argc_) {
    return false;
  }
  flag_ = argv_[next_++];
  return true;
}

std::string FlagCursor::value() {
  require(next_ < argc_, program_ + ": flag needs a value: " + flag_);
  return argv_[next_++];
}

std::uint64_t FlagCursor::number(std::uint64_t min, std::uint64_t max) {
  const std::string text = value();
  const std::optional<std::uint64_t> parsed = parse_unsigned(text, min, max);
  require(parsed.has_value(),
          program_ + ": " + flag_ + " expects an integer in [" +
              std::to_string(min) + ", " + std::to_string(max) +
              "], got '" + text + "'");
  return *parsed;
}

void FlagCursor::unknown() const {
  detail::raise_invalid_argument(program_ + ": unknown flag: " + flag_,
                                 std::source_location::current());
}

}  // namespace cbc
