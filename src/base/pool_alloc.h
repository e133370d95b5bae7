// Per-type freelist allocator for the simulator's per-operation objects.
//
// The request path creates and destroys the same few object shapes over and
// over: message bodies (dtu/msg_pool.h), pending-operation table nodes in the
// kernel and the filesystem service, capability records, and closures too
// large to sit inline in a UniqueFn (sim/inline_fn.h). Each lives a few
// simulated microseconds. PoolAllocator<T> serves single-object allocations
// from a freelist of T-sized blocks and parks freed blocks there for the next
// object of the same type, so steady-state churn allocates nothing and the
// memory high-water mark is the peak in-flight count. Multi-object requests
// (vector growth, hash bucket arrays) go straight to operator new.
//
// Node-based standard containers take it as their allocator and rebind it to
// their node type; PooledMap/PooledHashMap below spell that out. Neither
// iteration order nor any other observable behaviour depends on the
// allocator, so switching a container to a pooled one cannot change modeled
// results.
//
// Configure with -DSEMPEROS_DISABLE_POOLS=ON to make PoolAllocator plain
// std::allocator: every object is then a fresh heap allocation, which the
// ASan/UBSan CI job relies on — with recycling on, a stale reference to a
// reused block reads plausible live data; with it off, the sanitizer sees
// the free.
#ifndef SEMPEROS_BASE_POOL_ALLOC_H_
#define SEMPEROS_BASE_POOL_ALLOC_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

namespace semperos {

#ifndef SEMPEROS_DISABLE_POOLS

namespace pool_internal {

// One freelist per block type U, so every entry has exactly sizeof(U)
// bytes. thread_local: under the sharded engine (sim/engine.h) worker
// threads allocate and free concurrently; per-thread freelists keep the pool
// lock-free. A block allocated on one shard and freed on another simply
// parks in the freeing thread's list. The holder's destructor releases
// parked blocks when a thread exits (engine worker pools come and go with
// every parallel Platform; without it each run's peak in-flight memory
// would leak).
struct FreeListHolder {
  std::vector<void*> blocks;
  ~FreeListHolder() {
    for (void* p : blocks) {
      ::operator delete(p);
    }
  }
};

template <typename U>
std::vector<void*>& FreeList() {
  static thread_local FreeListHolder holder;
  return holder.blocks;
}

}  // namespace pool_internal

template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    if (n == 1) {
      std::vector<void*>& free_list = pool_internal::FreeList<T>();
      if (!free_list.empty()) {
        void* p = free_list.back();
        free_list.pop_back();
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (n == 1) {
      pool_internal::FreeList<T>().push_back(p);
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<U>&) {
    return true;
  }
};

#else  // SEMPEROS_DISABLE_POOLS

template <typename T>
using PoolAllocator = std::allocator<T>;

#endif  // SEMPEROS_DISABLE_POOLS

// Ordered and hashed maps whose nodes come from PoolAllocator.
template <typename K, typename V, typename Less = std::less<K>>
using PooledMap = std::map<K, V, Less, PoolAllocator<std::pair<const K, V>>>;

template <typename K, typename V, typename Hash = std::hash<K>>
using PooledHashMap =
    std::unordered_map<K, V, Hash, std::equal_to<K>, PoolAllocator<std::pair<const K, V>>>;

}  // namespace semperos

#endif  // SEMPEROS_BASE_POOL_ALLOC_H_
