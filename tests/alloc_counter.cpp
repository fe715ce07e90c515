// Global operator new/delete replaced with counting versions, linked only
// into test_trace, whose zero-allocation test asserts on the exact number
// of allocations a KernelSpan open/close makes.  The replacement has a
// translation unit of its own: compiled beside test bodies, GCC 12 inlined
// it into the gtest test factories and reported -Wmismatched-new-delete
// there at -O2 and under ASan+UBSan.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace alloc_counter

void* operator new(std::size_t size) {
  alloc_counter::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  alloc_counter::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
