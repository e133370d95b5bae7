// UniqueFn<R(Args...)>: the simulator's one move-only callable.
//
// Every simulated event, executor post and one-shot protocol continuation
// (a syscall's reply callback, an IKC's reply handler, an ask's answer, a
// remote endpoint configuration's completion) is a UniqueFn. Closures up to
// kInlineBytes live in place — no allocation, no indirection. Larger ones,
// typically a continuation that captures another continuation, take a block
// from the closure type's freelist (base/pool_alloc.h), so in steady state
// neither allocates. A UniqueFn is moved down a call chain, never copied;
// long-lived, shared handlers (a DTU endpoint's receive handler) stay
// std::function.
//
// InlineFn is the void() alias used by the event core.
#ifndef SEMPEROS_SIM_INLINE_FN_H_
#define SEMPEROS_SIM_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "base/pool_alloc.h"

namespace semperos {

template <typename Sig>
class UniqueFn;

template <typename R, typename... Args>
class UniqueFn<R(Args...)> {
 public:
  // Sized for the engine's typical closure: a this-pointer plus a Message
  // (48 bytes, including a shared_ptr body) and a SyscallCtx-sized context,
  // or a this-pointer, a CapPayload and a few scalars.
  static constexpr size_t kInlineBytes = 104;

  // Whether a closure of type F is stored in place. Sanitizer builds
  // (SEMPEROS_DISABLE_POOLS) store every closure out of line as a fresh heap
  // allocation, so a use-after-destroy of a capture is a real
  // use-after-free ASan can see — in-place storage would hand stale reads
  // plausible live bytes, the same masking problem recycled pool blocks
  // have.
  template <typename F>
  static constexpr bool kStoresInline =
#ifdef SEMPEROS_DISABLE_POOLS
      false;
#else
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;
#endif

  UniqueFn() noexcept = default;
  UniqueFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, UniqueFn> &&
                            !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                            std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor): takes lambdas like std::function
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVt<Fn>;
    } else {
      PoolAllocator<Fn> alloc;
      Fn* p = alloc.allocate(1);
      ::new (static_cast<void*>(p)) Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) Fn*(p);
      vt_ = &kHeapVt<Fn>;
    }
  }

  UniqueFn(UniqueFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->move(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      Reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->move(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFn& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { Reset(); }

  // By-value parameters are moved into the callable; reference parameters
  // are passed through.
  R operator()(Args... args) { return vt_->call(buf_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*move)(void* dst, void* src) noexcept;
    void (*destroy)(void* p) noexcept;
    R (*call)(void* p, Args&&... args);
  };

  template <typename Fn>
  static constexpr VTable kInlineVt = {
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      [](void* p, Args&&... args) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
      },
  };

  template <typename Fn>
  static constexpr VTable kHeapVt = {
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* p) noexcept {
        Fn* fn = *static_cast<Fn**>(p);
        fn->~Fn();
        PoolAllocator<Fn>().deallocate(fn, 1);
      },
      [](void* p, Args&&... args) -> R {
        return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
      },
  };

  void Reset() noexcept {
    if (vt_ != nullptr) {
      const VTable* vt = vt_;
      vt_ = nullptr;
      vt->destroy(buf_);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

using InlineFn = UniqueFn<void()>;

}  // namespace semperos

#endif  // SEMPEROS_SIM_INLINE_FN_H_
