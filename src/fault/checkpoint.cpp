#include "fault/checkpoint.h"

#include <fstream>

#include "util/atomic_file.h"
#include "util/ensure.h"

namespace cbc::fault {

void Checkpoint::encode(Writer& writer) const {
  writer.u32(kMagic);
  writer.u32(kVersion);
  writer.u64(node);
  writer.u64(cycles);
  writer.u64_vec(stable_digests);
  last_sync.encode(writer);
  frontier.encode(writer);
  writer.blob(app_state);
}

Checkpoint Checkpoint::decode(Reader& reader) {
  const std::uint32_t magic = reader.u32();
  require(magic == kMagic, "Checkpoint: bad magic");
  const std::uint32_t version = reader.u32();
  require(version == kVersion,
          "Checkpoint: unsupported version " + std::to_string(version));
  Checkpoint checkpoint;
  checkpoint.node = static_cast<NodeId>(reader.u64());
  checkpoint.cycles = reader.u64();
  checkpoint.stable_digests = reader.u64_vec();
  checkpoint.last_sync = MessageId::decode(reader);
  checkpoint.frontier = VectorClock::decode(reader);
  checkpoint.app_state = reader.blob();
  require(checkpoint.cycles == checkpoint.stable_digests.size(),
          "Checkpoint: cycle count disagrees with digest chain length");
  return checkpoint;
}

void Checkpoint::save(const std::string& path) const {
  Writer writer;
  encode(writer);
  require(write_file_atomic(path, writer.bytes()),
          "Checkpoint: cannot write '" + path + "'");
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "Checkpoint: cannot read '" + path + "'");
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  Reader reader(bytes);
  Checkpoint checkpoint = decode(reader);
  require(reader.exhausted(), "Checkpoint: trailing bytes in '" + path + "'");
  return checkpoint;
}

}  // namespace cbc::fault
