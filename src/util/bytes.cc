#include "util/bytes.h"

#include <fstream>

namespace rtr {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ull;
}  // namespace

uint64_t Fnv1a64Words(std::string_view bytes, uint64_t state) {
  DCHECK_EQ(bytes.size() % 8, 0u);
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    state = (state ^ word) * kFnvPrime;
  }
  return state;
}

uint64_t Fnv1a64Bytes(std::span<const uint8_t> bytes) {
  uint64_t state = 0xcbf29ce484222325ull;
  for (uint8_t byte : bytes) state = (state ^ byte) * kFnvPrime;
  return state;
}

StatusOr<std::string> ReadFilePrefix(const std::string& path,
                                     size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string buf(max_bytes, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.resize(static_cast<size_t>(in.gcount()));
  return buf;
}

bool ByteReader::ZeroPadTo8() {
  const size_t pad = PadTo8(at_) - at_;
  if (!Need(pad, 1)) return false;
  const char* p = Take(pad);
  for (size_t i = 0; i < pad; ++i) {
    if (p[i] != 0) return Fail("padding not zero");
  }
  return true;
}

bool ByteReader::Fail(std::string_view problem) {
  if (ok()) status_ = Status::IoError(std::string(what_) + " " +
                                      std::string(problem));
  return false;
}

}  // namespace rtr
