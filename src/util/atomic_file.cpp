#include "util/atomic_file.h"

#include <unistd.h>

#include <cstdio>

namespace cbc {

bool write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool written = std::fwrite(contents.data(), 1, contents.size(),
                                   file) == contents.size();
  // fclose flushes the stdio buffer, so its result counts as much as
  // fwrite's: a full disk often surfaces only here.
  const bool closed = std::fclose(file) == 0;
  if (written && closed && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

}  // namespace cbc
