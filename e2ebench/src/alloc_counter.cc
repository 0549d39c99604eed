// Global operator new/delete replacement that counts heap allocations made
// by the benchmark process. The count is a plain increment (the benchmark
// is single-threaded), so it is exact and repeats for a fixed seed.
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace pierbench {
uint64_t AllocCount() { return g_allocs; }
}  // namespace pierbench

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
