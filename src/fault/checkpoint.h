// Stable-point checkpoints: crash-recovery state at the paper's natural
// consistency boundary.
//
// At every stable point a member's state is, by construction, identical
// at all members ("without any explicit agreement protocol", §4.1) — so
// a snapshot taken exactly there needs no coordination to be a valid
// recovery point for the whole group. A Checkpoint bundles everything a
// dead member needs to resume as itself rather than as a blind observer:
//
//   - the app-state snapshot (opaque blob, the replica's stable state)
//   - the stable digest chain up to that point (so the InvariantChecker
//     can keep asserting agreement across the crash)
//   - the delivered frontier (vector clock of the stable cut — the
//     causal baseline the recovering member adopts)
//   - the closing sync's MessageId (the front-end's causal anchor)
//
// File layout (little-endian, via util/serde):
//
//     u32 magic 'CBCK'   u32 version
//     u64 node           u64 cycles (stable points captured)
//     u64_vec stable digest chain
//     MessageId last_sync   VectorClock frontier
//     blob app_state
//
// Writes are atomic (tmp + rename) so a crash mid-checkpoint leaves the
// previous checkpoint intact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/message_id.h"
#include "time/vector_clock.h"
#include "transport/transport.h"
#include "util/serde.h"

namespace cbc::fault {

struct Checkpoint {
  static constexpr std::uint32_t kMagic = 0x4342434BU;  // "CBCK"
  static constexpr std::uint32_t kVersion = 1;

  NodeId node = 0;
  /// Stable cycles closed at capture time (== stable_digests.size()).
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> stable_digests;
  MessageId last_sync = MessageId::null();
  VectorClock frontier;
  std::vector<std::uint8_t> app_state;

  void encode(Writer& writer) const;
  /// Throws SerdeError / InvalidArgument on truncation or bad magic.
  static Checkpoint decode(Reader& reader);

  /// Atomically persists to `path` (write_file_atomic); throws on I/O
  /// failure.
  void save(const std::string& path) const;
  /// Loads and validates a checkpoint file; throws on any failure.
  static Checkpoint load(const std::string& path);
};

}  // namespace cbc::fault
