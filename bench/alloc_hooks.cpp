// Replacement global allocation functions with atomic counters (calls and
// requested bytes).
//
// The C++ standard explicitly permits a program to replace the global
// operator new/delete family ([new.delete]); every allocation in the
// process — library internals included — then flows through these
// definitions. Counters use relaxed atomics: we only ever read them from
// quiescent measurement points, and relaxed keeps the hot-path cost to one
// uncontended fetch_add.

#include "bench/alloc_hooks.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  // Zero-size requests must return a unique pointer ([basic.stc.dynamic]).
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  count(size);
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) throw std::bad_alloc();
  count(size);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace tbr::alloc {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t deallocations() {
  return g_frees.load(std::memory_order_relaxed);
}

std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace tbr::alloc

// ---- replaced allocation functions ------------------------------------------

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}
