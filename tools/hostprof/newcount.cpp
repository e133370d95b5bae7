// operator new call-site counter, loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/hostprof/libhostprof_new.so ./build/semperos_sim micro
//   python3 tools/hostprof/resolve.py hostprof.<pid>.new
//
// Replaces the global operator new family with malloc-backed versions that
// count calls and bytes per return address (the instruction after the call
// to operator new, which with inlining usually sits in the function that
// owns the container or closure). At exit the table and a copy of
// /proc/self/maps go to hostprof.<pid>.new in the working directory;
// resolve.py maps the sites back to source through addr2line -i, which
// names the inlined allocator chain as well as the owning function.
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

constexpr size_t kSlots = 1 << 16;  // open-addressed; sites are few

struct Site {
  uintptr_t ret;
  uint64_t calls;
  uint64_t bytes;
};

Site g_sites[kSlots];
std::atomic_flag g_lock;  // clear: C++20 default-initializes it
uint64_t g_calls = 0;
uint64_t g_dropped = 0;  // calls whose site did not fit the table

void Count(void* ret, size_t bytes) {
  auto key = reinterpret_cast<uintptr_t>(ret);
  while (g_lock.test_and_set(std::memory_order_acquire)) {
  }
  g_calls++;
  size_t i = (key * 0x9E3779B97F4A7C15ull) >> 48;
  for (size_t probe = 0; probe < kSlots; ++probe, i = (i + 1) & (kSlots - 1)) {
    Site& s = g_sites[i];
    if (s.ret == key || s.ret == 0) {
      s.ret = key;
      s.calls++;
      s.bytes += bytes;
      g_lock.clear(std::memory_order_release);
      return;
    }
  }
  g_dropped++;
  g_lock.clear(std::memory_order_release);
}

void* Allocate(size_t bytes, size_t align, void* ret, bool nothrow) {
  Count(ret, bytes);
  if (bytes == 0) {
    bytes = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, (bytes + align - 1) / align * align);
  if (p == nullptr && !nothrow) {
    throw std::bad_alloc();
  }
  return p;
}

__attribute__((destructor)) void Dump() {
  char path[64];
  std::snprintf(path, sizeof(path), "hostprof.%d.new", static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  std::fprintf(out, "hostprof new calls %llu dropped %llu\n",
               static_cast<unsigned long long>(g_calls),
               static_cast<unsigned long long>(g_dropped));
  if (FILE* maps = std::fopen("/proc/self/maps", "r"); maps != nullptr) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fprintf(out, "m %s", line);
    }
    std::fclose(maps);
  }
  size_t sites = 0;
  for (const Site& s : g_sites) {
    if (s.ret != 0) {
      sites++;
      // ret - 1: inside the call instruction, as for sampled return addresses.
      std::fprintf(out, "n %lx %llu %llu\n", static_cast<unsigned long>(s.ret - 1),
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.bytes));
    }
  }
  std::fclose(out);
  std::fprintf(stderr, "hostprof: %llu operator new calls at %zu sites -> %s\n",
               static_cast<unsigned long long>(g_calls), sites, path);
}

}  // namespace

#define HOSTPROF_RET __builtin_return_address(0)

void* operator new(size_t n) { return Allocate(n, 0, HOSTPROF_RET, false); }
void* operator new[](size_t n) { return Allocate(n, 0, HOSTPROF_RET, false); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0, HOSTPROF_RET, true);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0, HOSTPROF_RET, true);
}
void* operator new(size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<size_t>(a), HOSTPROF_RET, false);
}
void* operator new[](size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<size_t>(a), HOSTPROF_RET, false);
}
void* operator new(size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<size_t>(a), HOSTPROF_RET, true);
}
void* operator new[](size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<size_t>(a), HOSTPROF_RET, true);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
