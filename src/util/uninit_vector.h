// UninitVector<T>: a std::vector whose `resize(n)` and `UninitVector<T>(n)`
// default-initialise new elements instead of value-initialising them. For
// arithmetic T that means the slots are allocated but not written, so a
// buffer that a parallel pass overwrites in full is not first zero-filled on
// one thread (which also lets that pass first-touch the pages). Every other
// operation is std::vector's: an explicit fill value (`UninitVector<T>(n, 0)`)
// is still written, and copies copy.
#ifndef SRC_UTIL_UNINIT_VECTOR_H_
#define SRC_UTIL_UNINIT_VECTOR_H_

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace egraph {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace egraph

#endif  // SRC_UTIL_UNINIT_VECTOR_H_
