// Replaces the global allocation functions for the benchmark binary only,
// counting every operator new (as bench/bench_simperf.cc does). The driver
// is single-threaded, so a plain counter suffices.

#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

namespace perfbench {
std::uint64_t AllocCount() { return g_alloc_count; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
