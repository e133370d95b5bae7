// Wall-clock stack sampler, loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/hostprof/libhostprof_sample.so ./build/semperos_sim micro
//   python3 tools/hostprof/resolve.py hostprof.<pid>.samples
//
// A POSIX timer on CLOCK_MONOTONIC delivers SIGPROF to the main thread every
// kPeriodNs. The handler records the interrupted program counter and walks
// the frame-pointer chain, accepting a frame only while it stays inside the
// main thread's stack and moves towards its base, so a binary built without
// frame pointers yields shallow but never wild chains (build with
// -fno-omit-frame-pointer for full call chains; self time needs no help).
// ITIMER_PROF is not used: it counts process CPU time at the kernel's tick
// granularity, which on some hosts is one tick per 4 ms.
//
// At exit the samples and a copy of /proc/self/maps go to
// hostprof.<pid>.samples in the working directory; resolve.py maps them back
// to functions. Only the main thread is sampled (the serial engine).
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace {

constexpr long kPeriodNs = 100'000;  // 10 kHz
constexpr int kMaxDepth = 48;
constexpr size_t kMaxSamples = 1 << 19;  // ~52 s at 10 kHz

struct Sample {
  uint32_t depth;
  uintptr_t pc[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_count{0};
uintptr_t g_stack_lo = 0;
uintptr_t g_stack_hi = 0;
timer_t g_timer;
bool g_armed = false;

void RegistersOf(void* uctx, uintptr_t* pc, uintptr_t* fp) {
  auto* uc = static_cast<ucontext_t*>(uctx);
#if defined(__x86_64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
  *pc = 0;
  *fp = 0;
#endif
}

void OnTick(int, siginfo_t*, void* uctx) {
  size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) {
    return;
  }
  Sample& s = g_samples[i];
  uintptr_t pc = 0;
  uintptr_t fp = 0;
  RegistersOf(uctx, &pc, &fp);
  s.pc[0] = pc;
  uint32_t depth = 1;
  // Each frame holds {caller's frame pointer, return address}.
  while (depth < kMaxDepth && fp >= g_stack_lo && fp + 2 * sizeof(uintptr_t) <= g_stack_hi &&
         fp % sizeof(uintptr_t) == 0) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    uintptr_t ret = frame[1];
    if (ret == 0) {
      break;
    }
    s.pc[depth++] = ret - 1;  // inside the call instruction
    if (frame[0] <= fp) {
      break;  // a stack grows down; a caller's frame sits above
    }
    fp = frame[0];
  }
  s.depth = depth;
}

void CopyMaps(FILE* out) {
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return;
  }
  char line[4096];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    std::fprintf(out, "m %s", line);
  }
  std::fclose(maps);
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    return;
  }
  g_samples = static_cast<Sample*>(mem);

  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    size_t size = 0;
    pthread_attr_getstack(&attr, &base, &size);
    g_stack_lo = reinterpret_cast<uintptr_t>(base);
    g_stack_hi = g_stack_lo + size;
    pthread_attr_destroy(&attr);
  }

  struct sigaction sa = {};
  sa.sa_sigaction = OnTick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  struct sigevent sev = {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    return;
  }
  struct itimerspec period = {};
  period.it_interval.tv_nsec = kPeriodNs;
  period.it_value.tv_nsec = kPeriodNs;
  g_armed = timer_settime(g_timer, 0, &period, nullptr) == 0;
}

__attribute__((destructor)) void Stop() {
  if (!g_armed) {
    return;
  }
  timer_delete(g_timer);
  g_armed = false;
  char path[64];
  std::snprintf(path, sizeof(path), "hostprof.%d.samples", static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  size_t n = g_count.load();
  if (n > kMaxSamples) {
    n = kMaxSamples;
  }
  std::fprintf(out, "hostprof samples period_ns %ld\n", kPeriodNs);
  CopyMaps(out);
  for (size_t i = 0; i < n; ++i) {
    std::fputc('s', out);
    for (uint32_t d = 0; d < g_samples[i].depth; ++d) {
      std::fprintf(out, " %lx", static_cast<unsigned long>(g_samples[i].pc[d]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stderr, "hostprof: %zu samples -> %s\n", n, path);
}

}  // namespace
