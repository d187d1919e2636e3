#include "check/history.h"

#include <fstream>
#include <iterator>

#include "util/atomic_file.h"
#include "util/ensure.h"

namespace cbc::check {

namespace {
constexpr std::uint32_t kMagic = 0x48434243U;  // "CBCH"
constexpr std::uint32_t kVersion = 1;
}  // namespace

void SiteHistory::encode(Writer& writer) const {
  writer.u32(kMagic);
  writer.u32(kVersion);
  writer.str(object);
  writer.u32(site);
  writer.u32(static_cast<std::uint32_t>(ops.size()));
  for (const HistoryOp& op : ops) {
    op.id.encode(writer);
    writer.u32(op.origin);
    writer.str(op.label);
    writer.blob(op.args);
    writer.u32(static_cast<std::uint32_t>(op.deps.size()));
    for (const MessageId& dep : op.deps) {
      dep.encode(writer);
    }
    writer.blob(op.response);
  }
}

SiteHistory SiteHistory::decode(Reader& reader) {
  const std::uint32_t magic = reader.u32();
  require(magic == kMagic, "SiteHistory: bad magic");
  const std::uint32_t version = reader.u32();
  require(version == kVersion,
          "SiteHistory: unsupported version " + std::to_string(version));
  SiteHistory history;
  history.object = reader.str();
  history.site = static_cast<NodeId>(reader.u32());
  const std::uint32_t count = reader.u32();
  history.ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    HistoryOp op;
    op.id = MessageId::decode(reader);
    op.origin = static_cast<NodeId>(reader.u32());
    op.label = reader.str();
    op.args = reader.blob();
    const std::uint32_t deps = reader.u32();
    op.deps.reserve(deps);
    for (std::uint32_t d = 0; d < deps; ++d) {
      op.deps.push_back(MessageId::decode(reader));
    }
    op.response = reader.blob();
    history.ops.push_back(std::move(op));
  }
  return history;
}

void SiteHistory::save(const std::string& path) const {
  Writer writer;
  encode(writer);
  require(write_file_atomic(path, writer.bytes()),
          "SiteHistory: cannot write '" + path + "'");
}

SiteHistory SiteHistory::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "SiteHistory: cannot read '" + path + "'");
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  Reader reader(bytes);
  SiteHistory history = decode(reader);
  require(reader.exhausted(), "SiteHistory: trailing bytes in '" + path + "'");
  return history;
}

}  // namespace cbc::check
