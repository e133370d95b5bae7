// Freelist recycling for hot-path message bodies.
//
// The kernels mint a shared_ptr message body for every syscall reply, IKC,
// exchange-ask and credit return — tens of millions of make_shared calls in
// one figure sweep, each a malloc/free pair for an object that lives a few
// simulated microseconds. NewMsg<T>() routes the combined object+control
// block through PoolAllocator (base/pool_alloc.h): std::allocate_shared
// performs its single allocation there, and deallocate() parks the block for
// the next message of the same type. With -DSEMPEROS_DISABLE_POOLS=ON this is
// plain make_shared.
#ifndef SEMPEROS_DTU_MSG_POOL_H_
#define SEMPEROS_DTU_MSG_POOL_H_

#include <memory>
#include <utility>

#include "base/pool_alloc.h"

namespace semperos {

// Allocates a message body of type T from T's freelist pool.
template <typename T, typename... Args>
std::shared_ptr<T> NewMsg(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{}, std::forward<Args>(args)...);
}

}  // namespace semperos

#endif  // SEMPEROS_DTU_MSG_POOL_H_
