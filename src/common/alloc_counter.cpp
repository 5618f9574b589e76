#include "common/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t tls_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++tls_allocations;
  return std::malloc(size > 0 ? size : 1);
}

}  // namespace

namespace vibguard {

std::uint64_t allocation_count() noexcept { return tls_allocations; }

void add_allocations(std::uint64_t n) noexcept { tls_allocations += n; }

}  // namespace vibguard

// Program-wide replacement of the scalar allocation functions (the array and
// nothrow forms forward here by default). Living in the same translation
// unit as allocation_count() guarantees the replacement is linked in
// whenever the counter is used.
void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
