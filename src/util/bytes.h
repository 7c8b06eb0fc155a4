#ifndef RTR_UTIL_BYTES_H_
#define RTR_UTIL_BYTES_H_

// The one byte codec under every decoder of untrusted bytes: rtr-snap
// snapshots (graph/snapshot.h), rtr-delt deltas (graph/delta.h) and RTRF
// frames (net/frame.h). Values are copied in host byte order: all three
// formats are little-endian, and the file codecs static_assert the host is.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace rtr {

constexpr size_t PadTo8(size_t n) { return (n + 7) & ~size_t{7}; }

// FNV-1a 64 over `bytes` read as 64-bit words (the size must be a multiple
// of 8), continuing from `state` so one checksum can span two ranges. The
// file formats hash word-wise, which keeps the integrity pass an order of
// magnitude cheaper than byte-wise FNV on multi-GB snapshots, and start from
// 1469598103934665603: the FNV offset basis short of its last digit, kept
// because every rtr-snap file ever written is sealed with it.
inline constexpr uint64_t kFnv1aWordsStart = 1469598103934665603ull;
uint64_t Fnv1a64Words(std::string_view bytes,
                      uint64_t state = kFnv1aWordsStart);
// Byte-wise FNV-1a 64 from the standard offset basis (frame payloads).
uint64_t Fnv1a64Bytes(std::span<const uint8_t> bytes);

// Up to `max_bytes` from the start of the file at `path`; IoError if it
// cannot be opened.
StatusOr<std::string> ReadFilePrefix(const std::string& path,
                                     size_t max_bytes);

// Appends to a byte buffer: a std::string or a std::vector<uint8_t>.
template <typename Buffer>
class ByteWriter {
 public:
  explicit ByteWriter(Buffer* out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&value, sizeof(T));
  }
  // Every item of a contiguous range (vector, span, string_view), verbatim.
  template <typename Range>
  void Items(const Range& items) {
    static_assert(std::is_trivially_copyable_v<
                  std::remove_pointer_t<decltype(std::data(items))>>);
    Raw(std::data(items), std::size(items) * sizeof(*std::data(items)));
  }
  // A u32 length, then the bytes.
  void String(std::string_view s) {
    Pod(static_cast<uint32_t>(s.size()));
    Items(s);
  }
  // Zero bytes up to the next multiple of 8.
  void PadTo8() { out_->resize(rtr::PadTo8(out_->size())); }

 private:
  // Grow, then copy: one path for both buffer types, and no range insert
  // (GCC 12 misreads its inlined memmove as out of bounds in Release).
  void Raw(const void* data, size_t n) {
    if (n == 0) return;
    const size_t at = out_->size();
    out_->resize(at + n);
    std::memcpy(out_->data() + at, data, n);
  }

  Buffer* out_;
};

// Bounds-checked reader over untrusted bytes. Each read checks count x size
// against the bytes that remain, without overflow, before it copies or
// allocates anything. The first failure latches a typed IoError that names
// `what`; every later read then fails too, so a decoder can run a sequence
// of reads and report status() once.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}
  ByteReader(std::span<const uint8_t> bytes, const char* what)
      : ByteReader(std::string_view(
                       reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()),
                   what) {}

  template <typename T>
  bool Pod(T* value) {
    return Items(1, value);
  }
  // `count` items into caller storage that holds at least that many.
  template <typename T>
  bool Items(uint64_t count, T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Need(count, sizeof(T))) return false;
    const size_t bytes = count * sizeof(T);
    if (bytes != 0) std::memcpy(out, Take(bytes), bytes);
    return true;
  }
  // `count` items into `*out`, which is resized only once they are known to
  // be there.
  template <typename T>
  bool Items(uint64_t count, std::vector<T>* out) {
    if (!Need(count, sizeof(T))) return false;
    out->resize(count);
    return Items(count, out->data());
  }
  // A u32 length, then that many bytes.
  bool String(std::string* out) {
    uint32_t length = 0;
    if (!Pod(&length) || !Need(length, 1)) return false;
    out->assign(Take(length), length);
    return true;
  }
  // Points `*out` at `count` items in place. A misaligned start fails
  // rather than risk an unaligned (undefined) access.
  template <typename T>
  bool View(uint64_t count, std::span<const T>* out) {
    if (!Need(count, sizeof(T))) return false;
    if (reinterpret_cast<uintptr_t>(bytes_.data() + at_) % alignof(T) != 0) {
      return Fail("column misaligned");
    }
    *out = {reinterpret_cast<const T*>(Take(count * sizeof(T))), count};
    return true;
  }
  bool Skip(uint64_t count, size_t item_bytes) {
    if (!Need(count, item_bytes)) return false;
    at_ += count * item_bytes;
    return true;
  }
  // Steps to the next multiple of 8 from the start; the bytes passed over
  // must be zero.
  bool ZeroPadTo8();
  // Fails unless every byte has been read.
  bool End() {
    return ok() && (at_ == bytes_.size() || Fail("trailing bytes"));
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t offset() const { return at_; }

  // Latches IoError("<what> <problem>") unless a failure already is;
  // returns false.
  bool Fail(std::string_view problem);

 private:
  bool Need(uint64_t count, size_t item_bytes) {
    if (!ok()) return false;
    return count <= (bytes_.size() - at_) / item_bytes || Fail("truncated");
  }
  const char* Take(size_t n) {
    const char* p = bytes_.data() + at_;
    at_ += n;
    return p;
  }

  std::string_view bytes_;
  const char* what_;
  size_t at_ = 0;
  Status status_;
};

}  // namespace rtr

#endif  // RTR_UTIL_BYTES_H_
