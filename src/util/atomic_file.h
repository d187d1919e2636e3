// Whole-file replacement that a concurrent reader or a crash can never
// observe half done: reports, progress files, metrics snapshots,
// checkpoints and recorded histories all go through it. (The flight
// recorder's crash dump keeps its own async-signal-safe writer.)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace cbc {

/// Replaces `path` with `contents`: writes a pid-unique sibling
/// `<path>.tmp.<pid>`, checks every write and the close, then renames it
/// over `path`. A reader polling `path` sees the previous file or the
/// complete new one, and two processes racing over one path (a crashed
/// member and its restarted incarnation) never share a tmp file. On any
/// failure — a missing directory, a full disk, a failed rename — the tmp
/// file is removed, `path` is left untouched, and false is returned.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view contents);

[[nodiscard]] inline bool write_file_atomic(
    const std::string& path, std::span<const std::uint8_t> contents) {
  return write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(contents.data()),
                             contents.size()));
}

}  // namespace cbc
