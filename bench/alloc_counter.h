#ifndef RTR_BENCH_ALLOC_COUNTER_H_
#define RTR_BENCH_ALLOC_COUNTER_H_

// Global operator-new interposer for allocation accounting in benchmark
// and test binaries. Include this header in EXACTLY ONE translation unit of
// a binary (it *defines* the replaceable global allocation functions); every
// heap allocation made by that binary then bumps a process-wide counter,
// which bench_micro uses to assert the steady-state 2SBound query path is
// allocation-free (ISSUE 4 / DESIGN.md §7).
//
// Deliberately outside the library: rtr itself must stay free of global
// operator-new replacement so embedders keep their own allocators.

#include <atomic>
#include <cstdlib>
#include <new>

namespace rtr::bench {

inline std::atomic<uint64_t> g_alloc_count{0};
inline std::atomic<uint64_t> g_alloc_peak_bytes{0};

// Number of operator-new calls (any variant) since process start.
inline uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Largest single operator-new request since process start or the last
// ResetAllocPeak() — what a decoder test reads to prove no allocation was
// sized from an untrusted count.
inline uint64_t AllocPeakBytes() {
  return g_alloc_peak_bytes.load(std::memory_order_relaxed);
}
inline void ResetAllocPeak() {
  g_alloc_peak_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace rtr::bench

namespace rtr::bench::internal {

inline void Count(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  uint64_t peak = g_alloc_peak_bytes.load(std::memory_order_relaxed);
  while (size > peak && !g_alloc_peak_bytes.compare_exchange_weak(
                            peak, size, std::memory_order_relaxed)) {
  }
}

inline void* CountedAlloc(std::size_t size) {
  Count(size);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) std::abort();  // benches do not recover from OOM
  return p;
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  Count(size);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size) != 0) std::abort();
  return p;
}

}  // namespace rtr::bench::internal

// Replaceable global allocation functions ([new.delete]); definitions, so
// one TU per binary only. Sized/unsized and aligned/unaligned deletes all
// funnel into free(), which is correct for malloc/posix_memalign memory.
void* operator new(std::size_t size) {
  return rtr::bench::internal::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return rtr::bench::internal::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return rtr::bench::internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return rtr::bench::internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return rtr::bench::internal::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return rtr::bench::internal::CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // RTR_BENCH_ALLOC_COUNTER_H_
