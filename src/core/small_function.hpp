// rsf::core — a trivially copyable small-buffer callable.
//
// SmallFunction<R(Args...), Capacity> stores a callable inline, with a
// monomorphized trampoline pointer for invocation — no heap, no
// virtual dispatch, and (unlike std::function) the wrapper itself is
// trivially copyable. That last property is what the event kernel
// cares about: a scheduled continuation that captures a SmallFunction
// stays eligible for the Simulator's inline event arm
// (sim::is_inline_event_v), whereas one capturing a std::function is
// forced onto the cold allocation path.
//
// The trade-offs against std::function are deliberate and enforced at
// compile time: the target must itself be trivially copyable and
// destructible, no more than pointer-aligned, and fit in Capacity
// bytes. Per-packet callbacks (Interconnect delivery/loss
// continuations) capture a few pointers and indices and meet the bar
// naturally; anything that doesn't belongs on a cold path and should
// keep using std::function.
//
// Layout: the trampoline pointer and a pointer-aligned buffer, so the
// default 24-byte capacity makes the wrapper exactly 32 bytes — one
// event's whole inline payload (sim::kInlineEventBytes). The wrapper
// can then be scheduled as the event itself.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rsf::core {

template <typename Signature, std::size_t Capacity = 24>
class SmallFunction;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFunction<R(Args...), Capacity> {
 public:
  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFunction>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "SmallFunction: callable signature mismatch");
    static_assert(std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
                  "SmallFunction holds trivially copyable callables; use std::function "
                  "for owning captures");
    static_assert(sizeof(Fn) <= Capacity,
                  "SmallFunction: capture exceeds the inline capacity");
    static_assert(alignof(Fn) <= alignof(void*),
                  "SmallFunction: the buffer is pointer-aligned");
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
    invoke_ = [](void* buffer, Args... args) -> R {
      return (*std::launder(reinterpret_cast<Fn*>(buffer)))(
          std::forward<Args>(args)...);
    };
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(const_cast<std::byte*>(buffer_), std::forward<Args>(args)...);
  }

 private:
  R (*invoke_)(void*, Args...) = nullptr;
  alignas(void*) std::byte buffer_[Capacity] = {};
};

}  // namespace rsf::core
