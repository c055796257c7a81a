// Move-only type-erased callable with inline (small-buffer) storage.
//
// The discrete-event engine stores one callable per scheduled event; with
// std::function every capture beyond two words costs a heap allocation per
// event, which dominates the simulator's steady-state cost long before
// protocol logic does. InlineFunction fits a capture of up to `Capacity`
// bytes directly inside the object — an event node owns its closure, so
// scheduling allocates nothing. Oversized or potentially-throwing captures
// still work: they degrade to exactly one boxed allocation held by a
// std::unique_ptr constructed in the same inline buffer.
//
// Unlike std::function the stored callable does not need to be copyable —
// closures may own moved-in Packets or other move-only resources.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/contracts.hpp"

namespace scmp::util {

template <typename Signature, std::size_t Capacity = 64>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

 public:
  InlineFunction() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): matches std::function
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(hicpp-explicit-conversions)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor,bugprone-forwarding-reference-overload)
  InlineFunction(F&& f) {
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the stored callable. Requires a non-empty function.
  R operator()(Args... args) {
    SCMP_EXPECTS(ops_ != nullptr);
    return ops_->invoke(storage(), std::forward<Args>(args)...);
  }

  /// Replaces the stored callable with `f`, built directly in this object's
  /// buffer: unlike assigning a temporary InlineFunction, the closure is
  /// not relocated a second time. Another InlineFunction is moved in;
  /// nullptr empties the function.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, InlineFunction>) {
      *this = std::forward<F>(f);
    } else if constexpr (std::is_same_v<D, std::nullptr_t>) {
      reset();
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>);
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the stored callable (if any), leaving the function empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type F would live inside the buffer (no heap).
  template <typename F>
  static constexpr bool stores_inline() {
    return kFitsInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs dst from src's value and destroys src's value.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return std::invoke(*static_cast<D*>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = static_cast<D*>(src);
        std::construct_at(static_cast<D*>(dst), std::move(*from));
        std::destroy_at(from);
      },
      [](void* s) noexcept { std::destroy_at(static_cast<D*>(s)); }};

  template <typename D>
  static constexpr Ops kBoxedOps{
      [](void* s, Args&&... args) -> R {
        return std::invoke(**static_cast<std::unique_ptr<D>*>(s),
                           std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        auto* from = static_cast<std::unique_ptr<D>*>(src);
        std::construct_at(static_cast<std::unique_ptr<D>*>(dst),
                          std::move(*from));
        std::destroy_at(from);
      },
      [](void* s) noexcept {
        std::destroy_at(static_cast<std::unique_ptr<D>*>(s));
      }};

  void* storage() noexcept { return static_cast<void*>(&buf_); }

  /// Builds `f` into the (empty) buffer, boxed when it does not fit.
  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      std::construct_at(target<D>(), std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      std::construct_at(target<std::unique_ptr<D>>(),
                        std::make_unique<D>(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  template <typename T>
  T* target() noexcept {
    static_assert(sizeof(T) <= Capacity && alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(storage());
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage(), other.storage());
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace scmp::util
