// Counting global operator new/delete for the benches' steady-state
// allocation probes: every heap allocation the binary makes bumps one
// counter, so a probe can prove a warm hot path allocates nothing.
// Counting only; allocation still goes through malloc/free.
//
// The replacement operators are ordinary (non-inline) definitions, so
// include this header from exactly one translation unit per binary -- each
// bench is a single .cpp.
//
// Sanitizer builds own operator new/delete (replacing them breaks ASan's
// alloc/dealloc matching) and skew wall-clock ratios, so there the
// operators are left alone, heap_allocs() stays 0, and
// INFILTER_BENCH_SANITIZED tells callers to skip allocation and perf gates.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define INFILTER_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define INFILTER_BENCH_SANITIZED 1
#endif
#endif
#ifndef INFILTER_BENCH_SANITIZED
#define INFILTER_BENCH_SANITIZED 0
#endif

namespace infilter::bench {

inline std::atomic<std::uint64_t> g_heap_allocs{0};

/// Heap allocations made by this binary so far.
inline std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

#if !INFILTER_BENCH_SANITIZED
inline void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
#endif

}  // namespace infilter::bench

#if !INFILTER_BENCH_SANITIZED
void* operator new(std::size_t size) { return infilter::bench::counted_alloc(size); }
void* operator new[](std::size_t size) { return infilter::bench::counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
