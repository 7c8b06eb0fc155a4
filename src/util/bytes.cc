#include "util/bytes.h"

#include <fstream>

namespace rtr {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ull;
}  // namespace

uint64_t Fnv1a64Words(std::string_view bytes, uint64_t state) {
  const size_t words_end = bytes.size() & ~size_t{7};
  for (size_t i = 0; i < words_end; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    state = (state ^ word) * kFnvPrime;
  }
  for (size_t i = words_end; i < bytes.size(); ++i) {
    state = (state ^ static_cast<uint8_t>(bytes[i])) * kFnvPrime;
  }
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
