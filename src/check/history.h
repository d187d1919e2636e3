// Recorded operation histories — the on-disk input of the offline
// consistency oracle (HistoryChecker, cbc_check).
//
// A SiteHistory is one member's local delivery sequence: every operation
// it applied, in order, with the dependency set the message carried and
// the response its application produced. cbc_node --record-history
// writes one file per member; the checker replays the set of files
// against the object's sequential specification.
//
// File format (versioned, little-endian):
//   u32 magic 'CBCH'   u32 version   str object   u32 site
//   u32 ops   then per op:
//     id (sender,seq)   u32 origin   str label   blob args
//     u32 deps + (sender,seq) each   blob response
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/message_id.h"
#include "util/serde.h"
#include "util/types.h"

namespace cbc::check {

/// One applied operation as one site recorded it.
struct HistoryOp {
  MessageId id;
  NodeId origin = kNoNode;
  std::string label;                    ///< "kind(args)#n"; kind_of() splits
  std::vector<std::uint8_t> args;       ///< encoded operation arguments
  std::vector<MessageId> deps;          ///< the message's Occurs_After set
  std::vector<std::uint8_t> response;   ///< bytes apply() returned here

  bool operator==(const HistoryOp& other) const = default;
};

/// One member's complete local delivery order.
struct SiteHistory {
  std::string object;  ///< catalog name of the replicated object
  NodeId site = kNoNode;
  std::vector<HistoryOp> ops;

  void encode(Writer& writer) const;
  static SiteHistory decode(Reader& reader);

  /// Atomic (write_file_atomic) save. Throws InvalidArgument on I/O failure.
  void save(const std::string& path) const;

  /// Throws InvalidArgument on missing file, truncation, bad magic, or
  /// unsupported version.
  static SiteHistory load(const std::string& path);
};

}  // namespace cbc::check
