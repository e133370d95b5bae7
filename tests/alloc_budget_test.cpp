// Allocation budget of the open-loop request path.
//
// A request's protocol work — syscalls, the exchange-ask to the filesystem
// service, capability creation and revocation, DTU messages, events — runs
// on pooled message bodies, pooled pending-table and capability nodes, ring
// work queues and inline (or pooled) continuations, so in steady state it
// should not reach operator new at all. This test replaces the global
// operator new with a counting one and measures the steady-state cost as the
// difference between two traffic runs that differ only in request count:
// boot, warm-up and the per-run containers cancel out. A first, unmeasured
// run grows the (process-wide) freelists to their high-water mark, so
// neither measured run pays for that.
//
// Not built with SEMPEROS_DISABLE_POOLS: closures and pooled nodes then
// heap-allocate by design, and AddressSanitizer owns operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "system/platform.h"
#include "traffic/traffic.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// noinline: once inlined into a caller, the malloc/free inside these would
// meet the caller's operator new/delete, which GCC reports as mismatched.
[[gnu::noinline]] void* operator new(size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace semperos {
namespace {

// Serial engine: the budget is the request path's, not the sharded
// engine's cross-shard bookkeeping.
uint64_t AllocationsFor(uint64_t requests) {
  TrafficConfig config;
  config.kernels = 4;
  config.services = 4;
  config.servers = 8;
  config.threads = kForceSerialThreads;
  config.arrivals.rate_rps = 200'000.0;
  config.warmup = 500;
  config.requests = requests;
  config.cooldown = 0;
  uint64_t before = g_allocations.load();
  TrafficResult result = RunTraffic(config);
  uint64_t after = g_allocations.load();
  EXPECT_EQ(result.measured, requests);
  return after - before;
}

TEST(AllocBudget, SteadyStateRequestsAllocateAtMostThreeTimes) {
  AllocationsFor(1'000);  // warms the freelists
  uint64_t small = AllocationsFor(1'000);
  uint64_t large = AllocationsFor(3'000);
  ASSERT_GE(large, small);
  double per_request = static_cast<double>(large - small) / 2'000.0;
  RecordProperty("allocations_per_request", std::to_string(per_request));
  std::printf("operator new calls: %llu (1k requests), %llu (3k requests), %.2f per request\n",
              static_cast<unsigned long long>(small), static_cast<unsigned long long>(large),
              per_request);
  EXPECT_LE(per_request, 3.0);
}

}  // namespace
}  // namespace semperos
