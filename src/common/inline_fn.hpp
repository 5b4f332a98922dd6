// InlineFn: a move-only void() callable with a small-buffer guarantee.
//
// std::function heap-allocates any capture larger than two pointers, which
// made every scheduled simulator event cost an allocation. InlineFn stores
// captures up to kInlineBytes in place — sized so that every closure the
// engine itself schedules (crash and recover markers, the workload
// drivers' op issues) fits inline with room to spare — and falls back to
// the heap only for larger client-provided captures.
//
// Only what the event queue needs is implemented: construct, move, invoke,
// test for emptiness. No copy, no target introspection, no allocator
// support.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tbr {

class InlineFn {
 public:
  /// Captures up to this many bytes never touch the heap.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fd = std::decay_t<F>;
    if constexpr (fits_inline<Fd>()) {
      ::new (static_cast<void*>(buf_)) Fd(std::forward<F>(f));
      invoke_ = [](void* b) { (*std::launder(reinterpret_cast<Fd*>(b)))(); };
      manage_ = [](void* dst, void* src) {
        Fd* s = std::launder(reinterpret_cast<Fd*>(src));
        if (dst != nullptr) ::new (dst) Fd(std::move(*s));
        s->~Fd();
      };
    } else {
      using P = Fd*;
      ::new (static_cast<void*>(buf_))
          P(new Fd(std::forward<F>(f)));  // heap fallback: large capture
      invoke_ = [](void* b) { (**std::launder(reinterpret_cast<P*>(b)))(); };
      manage_ = [](void* dst, void* src) {
        P* s = std::launder(reinterpret_cast<P*>(src));
        if (dst != nullptr) {
          ::new (dst) P(*s);
        } else {
          delete *s;
        }
        s->~P();
      };
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(std::move(other)); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  friend bool operator==(const InlineFn& fn, std::nullptr_t) noexcept {
    return fn.invoke_ == nullptr;
  }

 private:
  template <typename Fd>
  static constexpr bool fits_inline() {
    return sizeof(Fd) <= kInlineBytes &&
           alignof(Fd) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fd>;
  }

  void move_from(InlineFn&& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (other.manage_ != nullptr) {
      other.manage_(buf_, other.buf_);  // move-construct into our buffer
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(nullptr, buf_);  // destroy in place
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  using Invoke = void (*)(void*);
  /// dst == nullptr: destroy *src. Otherwise move-construct dst from src
  /// and destroy src (one function keeps the per-type footprint small).
  using Manage = void (*)(void* dst, void* src);

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace tbr
