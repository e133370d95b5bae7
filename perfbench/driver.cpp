// Two-clock benchmark driver: host cost and modeled latency of the SemperOS
// simulator on three capability-traffic workloads (see README.md).
//
//   perfbench_driver --workload postmark_local|sqlite_spanning|traffic_nginx
//                    --seed N --seconds S --trace 0|1
//                    [--tiny] [--corrupt-expectation] [--threads N]
//
// The driver composes each workload from the simulator's public entry
// points (Platform, PopulateImage/PopulateNginxImage, AttachServices,
// TraceReplayer/NginxServer/OpenLoopGen, BuildArrivalSchedule, Boot,
// RunToCompletion, FindSaturation, AuditPlatform, Tracer::Merged), times
// set-up and run apart, checks every run's outputs, and prints one
// machine-readable line, `RESULT {...}`, that run.py turns into the
// benchmark's result. --trace 0 measures the end-to-end metrics with tracing
// off; --trace 1 measures the per-layer metrics: counters, probes that time
// one layer's public function in a loop, and a separate traced run.
//
// --tiny shrinks every workload to a few PEs (the benchmark's own tests use
// it); --corrupt-expectation raises the expected Table 4 count by one, so
// the tests can prove the correctness gate fires; --threads N sets the
// engine's thread count explicitly instead of leaving the library default,
// so the tests can check that the timed reps leave every engine thread a
// CPU of its own.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference.h"

#include "audit/cap_audit.h"
#include "base/log.h"
#include "base/types.h"
#include "dtu/dtu.h"
#include "dtu/msg_pool.h"
#include "fs/fs_image.h"
#include "fs/service.h"
#include "noc/noc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "system/client.h"
#include "system/experiment.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "traffic/traffic.h"
#include "workloads/nginx.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// On a shared host, slow phases (contention from other tenants' work on
// the same physical core) come and go per core and last seconds. Timed reps
// therefore rotate over the CPUs this process may use, so one run's median
// samples every core instead of whichever one the scheduler kept it on.
// Each rep gets as many CPUs as the engine runs threads: the engine's
// workers inherit the mask of the thread that builds the Platform, so a
// sharded engine is never squeezed onto fewer cores than it was given.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Restore() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }

  // Pins the calling thread to the next `width` allowed CPUs, starting one
  // CPU further on each call (a no-op when the allowed set is unknown).
  // Returns how many CPUs the thread may now use.
  size_t Next(size_t width) {
    if (cpus_.empty()) {
      return 0;
    }
    width = std::clamp<size_t>(width, 1, cpus_.size());
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = 0; i < width; ++i) {
      CPU_SET(cpus_[(next_ + i) % cpus_.size()], &set);
    }
    ++next_;
    sched_setaffinity(0, sizeof(set), &set);
    return width;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

// Paper Table 4: capability operations per instance. These are the
// benchmark's reference values, deliberately not read from the library.
constexpr uint32_t kPaperCapOpsPostmark = 38;
constexpr uint32_t kPaperCapOpsSqlite = 24;

// Paper Table 3 (cycles): local/spanning exchange, local/spanning revoke.
constexpr double kPaperTable3[4] = {3597, 6484, 1997, 3876};

struct WorkloadDef {
  std::string name;
  bool traffic = false;
  // Trace-replay apps.
  std::string app;
  uint32_t instances = 0;
  uint32_t paper_cap_ops = 0;
  // Shared shape.
  uint32_t kernels = 0;
  uint32_t services = 0;
  // Open-loop traffic (servers == generators).
  uint32_t servers = 0;
  double rate_rps = 0;
  uint64_t warmup = 0;
  uint64_t requests = 0;
  double sat_start_rps = 0;
  uint64_t sat_warmup = 0;
  uint64_t sat_requests = 0;
  uint32_t sat_refine_steps = 0;
  // Engine threads: 0 keeps the library default (the benchmark's setting).
  uint32_t threads = 0;
};

constexpr double kSlaP99Us = 500.0;
constexpr uint32_t kSaturationSeeds = 5;

bool MakeWorkload(const std::string& name, bool tiny, WorkloadDef* w) {
  w->name = name;
  if (name == "postmark_local") {
    w->app = "postmark";
    w->paper_cap_ops = kPaperCapOpsPostmark;
    w->kernels = tiny ? 4 : 64;
    w->services = tiny ? 4 : 64;
    w->instances = tiny ? 16 : 1024;
    return true;
  }
  if (name == "sqlite_spanning") {
    w->app = "sqlite";
    w->paper_cap_ops = kPaperCapOpsSqlite;
    w->kernels = tiny ? 4 : 64;
    w->services = tiny ? 1 : 16;
    w->instances = tiny ? 16 : 512;
    return true;
  }
  if (name == "traffic_nginx") {
    w->traffic = true;
    w->kernels = tiny ? 4 : 32;
    w->services = tiny ? 4 : 32;
    w->servers = tiny ? 8 : 256;
    w->rate_rps = tiny ? 50'000.0 : 1'500'000.0;
    w->warmup = tiny ? 200 : 4'000;
    w->requests = tiny ? 2'000 : 100'000;
    w->sat_start_rps = w->rate_rps;
    w->sat_warmup = tiny ? 200 : 2'000;
    w->sat_requests = tiny ? 2'000 : 20'000;
    w->sat_refine_steps = tiny ? 2 : 5;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// One set-up + run of a workload, with its checks and counters
// ---------------------------------------------------------------------------

struct SpanSummary {
  uint64_t spans = 0;
  uint64_t dropped = 0;
  double merge_s = 0;
  // Self cycles per kind, summed over every span of the run.
  double self_cycles[static_cast<size_t>(obs::SpanKind::kNumKinds)] = {};
};

struct Rep {
  // Host clock.
  double platform_s = 0;
  double attach_s = 0;
  double boot_s = 0;
  double run_s = 0;
  double setup_s() const { return platform_s + attach_s + boot_s; }
  // How many CPUs each other thread of the process (the engine's workers)
  // may run on, read right after the Platform is built.
  std::vector<int> worker_cpus;

  // Correctness.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Modeled clock (bit-identical across reps of one configuration).
  std::vector<double> latencies_us;  // apps: per-instance runtimes (sorted)
  LatencyHistogram histogram;        // traffic: measured request latencies
  uint64_t units = 0;                // instances or injected requests
  uint64_t cap_ops = 0;
  Cycles makespan = 0;
  uint64_t events = 0;
  uint64_t boot_ikc = 0;
  KernelStats kernel;
  NocStats noc;
  DtuStats dtu;  // summed over PEs
  uint64_t drops = 0;
  FsServiceStats fs;  // summed over services
  double kernel_busy_mean = 0;
  double kernel_busy_max = 0;
  double service_busy_mean = 0;
  double offered_rps = 0;
  NocConfig noc_config;
  EngineStats engine;  // zero on the serial engine
  // Node pairs shaped like the workload's traffic, for the NoC probe: each
  // user PE talks to its kernel, a service and the memory tile.
  std::vector<std::pair<NodeId, NodeId>> noc_pairs;

  SpanSummary spans;  // traced runs only
};

void Fail(Rep* rep, const std::string& why) { rep->failures.push_back(why); }

// The number of CPUs each thread of this process other than the caller may
// run on (an empty list on the serial engine).
std::vector<int> OtherThreadCpuCounts() {
  std::vector<int> counts;
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    pid_t tid = static_cast<pid_t>(std::strtol(entry.path().filename().c_str(), nullptr, 10));
    cpu_set_t set;
    if (tid != self && sched_getaffinity(tid, sizeof(set), &set) == 0) {
      counts.push_back(CPU_COUNT(&set));
    }
  }
  return counts;
}

// Nearest-rank percentile over sorted samples (the LatencyHistogram rule).
uint64_t Rank(double q, uint64_t n) {
  double r = std::ceil(q * static_cast<double>(n));
  return std::max<uint64_t>(1, std::min<uint64_t>(n, static_cast<uint64_t>(r)));
}

double SortedPercentile(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : sorted[Rank(q, sorted.size()) - 1];
}

// Highest percentile of the ladder with at least ten samples beyond it.
double TailQuantile(uint64_t n) {
  static const double kLadder[] = {0.999, 0.995, 0.99, 0.98, 0.95, 0.90, 0.50};
  for (double q : kLadder) {
    if (n - Rank(q, n) >= 10) {
      return q;
    }
  }
  return 0.50;
}

double Percentile(const Rep& rep, double q) {
  if (!rep.latencies_us.empty()) {
    return SortedPercentile(rep.latencies_us, q);
  }
  return CyclesToMicros(rep.histogram.Percentile(q));
}

uint64_t Samples(const Rep& rep) {
  return rep.latencies_us.empty() ? rep.histogram.count() : rep.latencies_us.size();
}

// Self cycles of every span: duration minus the union of its children's
// intervals (clipped to the parent). Summed per span kind.
void SummarizeSpans(obs::Tracer* tracer, SpanSummary* out) {
  Clock::time_point t0 = Clock::now();
  const std::vector<obs::Span>& spans = tracer->Merged();
  out->merge_s = SecondsSince(t0);
  out->spans = spans.size();
  out->dropped = tracer->dropped();
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].span_id, i);
  }
  std::vector<std::vector<std::pair<Cycles, Cycles>>> children(spans.size());
  for (const obs::Span& s : spans) {
    if (s.parent_id == 0) {
      continue;
    }
    auto it = index.find(s.parent_id);
    if (it != index.end()) {
      children[it->second].push_back({s.start, s.end});
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    std::vector<std::pair<Cycles, Cycles>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Cycles covered = 0;
    Cycles cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out->self_cycles[static_cast<size_t>(s.kind)] +=
        static_cast<double>(s.end - s.start - covered);
  }
}

// Counters every workload shares, read after the run has quiesced.
void CollectCommon(Platform& platform, Rep* rep) {
  rep->kernel = platform.TotalKernelStats();
  rep->noc = platform.noc().stats();
  rep->noc_config = platform.noc().config();
  rep->drops = platform.TotalDrops();
  if (platform.parallel()) {
    rep->engine = platform.engine_stats();
  }
  const std::vector<NodeId>& svcs = platform.service_nodes();
  for (size_t i = 0; i < platform.user_nodes().size(); ++i) {
    NodeId u = platform.user_nodes()[i];
    NodeId k = platform.kernel_node(platform.membership().KernelOf(u));
    rep->noc_pairs.push_back({u, k});
    rep->noc_pairs.push_back({k, u});
    if (!svcs.empty()) {
      rep->noc_pairs.push_back({u, svcs[i % svcs.size()]});
      rep->noc_pairs.push_back({svcs[i % svcs.size()], u});
    }
    rep->noc_pairs.push_back({u, platform.mem_nodes().at(0)});
  }
  for (uint32_t n = 0; n < platform.pe_count(); ++n) {
    const DtuStats& d = platform.pe(n)->dtu().stats();
    rep->dtu.msgs_sent += d.msgs_sent;
    rep->dtu.sends_denied += d.sends_denied;
    rep->dtu.mem_bytes += d.mem_bytes;
  }
  for (NodeId node : platform.service_nodes()) {
    const auto* svc = static_cast<const FsService*>(platform.pe(node)->program());
    rep->fs.opens += svc->stats().opens;
    rep->fs.metas += svc->stats().metas;
    rep->fs.extents_handed += svc->stats().extents_handed;
  }
  if (rep->makespan > 0) {
    double span = static_cast<double>(rep->makespan);
    double sum = 0;
    for (uint32_t k = 0; k < platform.kernel_count(); ++k) {
      double util =
          static_cast<double>(platform.pe(platform.kernel_node(k))->exec().busy_cycles()) / span;
      sum += util;
      rep->kernel_busy_max = std::max(rep->kernel_busy_max, util);
    }
    rep->kernel_busy_mean = sum / platform.kernel_count();
    double svc = 0;
    for (NodeId node : platform.service_nodes()) {
      svc += static_cast<double>(platform.pe(node)->exec().busy_cycles()) / span;
    }
    rep->service_busy_mean = svc / std::max<size_t>(1, platform.service_nodes().size());
  }
  if (rep->drops != 0) {
    Fail(rep, "TotalDrops() = " + std::to_string(rep->drops));
  }
  AuditReport audit = AuditPlatform(platform);
  if (!audit.ok()) {
    Fail(rep, "audit: " + audit.ToString());
  }
  rep->cap_ops = rep->kernel.obtains + rep->kernel.delegates + rep->kernel.revokes;
}

PlatformConfig BaseConfig(const WorkloadDef& w, bool traced) {
  PlatformConfig pc;  // engine threads and cap batching stay at library defaults
  if (w.threads != 0) {
    pc.threads = w.threads;
  }
  pc.kernels = w.kernels;
  pc.services = w.services;
  pc.users = w.traffic ? w.servers : w.instances;
  pc.loadgens = w.traffic ? w.servers : 0;
  pc.trace.enabled = traced;
  return pc;
}

Rep RunAppOnce(const WorkloadDef& w, bool traced, uint32_t expected_per_instance) {
  Rep rep;
  TimingModel timing = TimingModel::SemperOs();
  Clock::time_point t0 = Clock::now();
  Platform platform(BaseConfig(w, traced));
  rep.platform_s = SecondsSince(t0);
  rep.worker_cpus = OtherThreadCpuCounts();

  t0 = Clock::now();
  FsImage image;
  PopulateImage(&image, w.app, w.instances);
  image.Freeze();
  AttachServices(&platform, image, timing, image.bytes_used() + w.instances * kGrowthHeadroom);
  std::vector<TraceReplayer*> replayers;
  replayers.reserve(w.instances);
  for (uint32_t i = 0; i < w.instances; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    auto replayer = std::make_unique<TraceReplayer>(MakeTrace(w.app, i), kernel_node, timing);
    replayers.push_back(replayer.get());
    platform.pe(node)->AttachProgram(std::move(replayer));
  }
  rep.attach_s = SecondsSince(t0);

  t0 = Clock::now();
  platform.Boot();
  rep.boot_s = SecondsSince(t0);
  rep.boot_ikc = platform.TotalKernelStats().ikc_sent;

  t0 = Clock::now();
  rep.events = platform.RunToCompletion();
  rep.run_s = SecondsSince(t0);

  Cycles first = UINT64_MAX;
  Cycles last = 0;
  uint64_t instance_cap_ops = 0;
  rep.units = w.instances;
  rep.attempted = w.instances;
  for (uint32_t i = 0; i < w.instances; ++i) {
    const TraceReplayer::Result& r = replayers[i]->result();
    if (!r.done || r.cap_ops != expected_per_instance) {
      rep.failed++;
      if (rep.failed <= 3) {
        Fail(&rep, "instance " + std::to_string(i) + (r.done ? "" : " did not finish,") +
                       " cap ops " + std::to_string(r.cap_ops) + " != Table 4 " +
                       std::to_string(expected_per_instance));
      }
    }
    if (r.done) {
      first = std::min(first, r.start);
      last = std::max(last, r.end);
      rep.latencies_us.push_back(CyclesToMicros(r.runtime()));
    }
    instance_cap_ops += r.cap_ops;
  }
  std::sort(rep.latencies_us.begin(), rep.latencies_us.end());
  rep.makespan = last > first ? last - first : 0;
  CollectCommon(platform, &rep);
  if (instance_cap_ops != uint64_t{w.instances} * expected_per_instance) {
    Fail(&rep, "cap-op total " + std::to_string(instance_cap_ops) + " != instances x Table 4");
  }
  if (rep.cap_ops != instance_cap_ops) {
    Fail(&rep, "kernel cap ops " + std::to_string(rep.cap_ops) + " != replayer cap ops " +
                   std::to_string(instance_cap_ops));
  }
  if (obs::Tracer* tracer = platform.tracer(); tracer != nullptr) {
    SummarizeSpans(tracer, &rep.spans);
  }
  return rep;
}

uint64_t ShareOf(uint64_t total, uint32_t index, uint32_t parts) {
  return total / parts + (index < total % parts ? 1 : 0);
}

TrafficConfig TrafficOf(const WorkloadDef& w, uint64_t seed) {
  TrafficConfig config;  // request shape "nginx", Poisson arrivals
  config.kernels = w.kernels;
  config.services = w.services;
  config.servers = w.servers;
  config.arrivals.rate_rps = w.rate_rps;
  config.warmup = w.warmup;
  config.requests = w.requests;
  config.seed = seed;
  return config;
}

Rep RunTrafficOnce(const WorkloadDef& w, uint64_t seed, bool traced) {
  Rep rep;
  TrafficConfig config = TrafficOf(w, seed);
  TimingModel timing = TimingModel::SemperOs();
  Clock::time_point t0 = Clock::now();
  Platform platform(BaseConfig(w, traced));
  rep.platform_s = SecondsSince(t0);
  rep.worker_cpus = OtherThreadCpuCounts();

  t0 = Clock::now();
  FsImage image;
  PopulateNginxImage(&image);
  image.Freeze();
  AttachServices(&platform, image, timing, image.bytes_used() + kGrowthHeadroom);
  for (uint32_t i = 0; i < w.servers; ++i) {
    NodeId node = platform.user_nodes().at(i);
    NodeId kernel_node = platform.kernel_node(platform.membership().KernelOf(node));
    platform.pe(node)->AttachProgram(
        std::make_unique<NginxServer>(MakeNginxRequestTrace(), kernel_node, timing));
  }
  std::vector<OpenLoopGen*> gens;
  for (uint32_t i = 0; i < w.servers; ++i) {
    uint64_t warm = ShareOf(w.warmup, i, w.servers);
    uint64_t meas = ShareOf(w.requests, i, w.servers);
    std::vector<Cycles> schedule =
        BuildArrivalSchedule(config.arrivals, seed, i, w.servers, warm + meas);
    auto gen = std::make_unique<OpenLoopGen>(platform.user_nodes().at(i), std::move(schedule),
                                             warm, meas, config.pipeline);
    gens.push_back(gen.get());
    platform.pe(platform.loadgen_nodes().at(i))->AttachProgram(std::move(gen));
  }
  rep.attach_s = SecondsSince(t0);

  t0 = Clock::now();
  platform.Boot();
  rep.boot_s = SecondsSince(t0);
  rep.boot_ikc = platform.TotalKernelStats().ikc_sent;
  Cycles boot_done = platform.sim().Now();

  t0 = Clock::now();
  rep.events = platform.RunToCompletion();
  rep.run_s = SecondsSince(t0);
  rep.makespan = platform.sim().Now() - boot_done;

  uint64_t total = w.warmup + w.requests;
  uint64_t injected = 0;
  uint64_t completed = 0;
  Cycles open = UINT64_MAX;
  Cycles close = 0;
  for (OpenLoopGen* gen : gens) {
    injected += gen->injected();
    completed += gen->completed();
    rep.histogram.Merge(gen->latency());
    if (gen->latency().count() > 0) {
      open = std::min(open, gen->first_measured_arrival());
      close = std::max(close, gen->last_measured_arrival());
    }
  }
  rep.units = total;
  rep.attempted = total;
  rep.failed = total - std::min(total, completed);
  if (injected != total || completed != total) {
    Fail(&rep, "injected " + std::to_string(injected) + ", completed " +
                   std::to_string(completed) + ", expected " + std::to_string(total));
  }
  if (rep.histogram.count() != w.requests) {
    Fail(&rep, "measured " + std::to_string(rep.histogram.count()) + " != " +
                   std::to_string(w.requests));
  }
  if (close > open && open != UINT64_MAX) {
    rep.offered_rps = static_cast<double>(rep.histogram.count()) / CyclesToSeconds(close - open);
  }
  CollectCommon(platform, &rep);
  if (obs::Tracer* tracer = platform.tracer(); tracer != nullptr) {
    SummarizeSpans(tracer, &rep.spans);
  }
  return rep;
}

Rep RunOnce(const WorkloadDef& w, uint64_t seed, bool traced, uint32_t expected) {
  Rep rep = w.traffic ? RunTrafficOnce(w, seed, traced) : RunAppOnce(w, traced, expected);
  if (!rep.failures.empty() && rep.failed == 0) {
    rep.failed = rep.attempted;  // a platform-level check taints every operation
  }
  return rep;
}

// Every modeled output of a rep, in a fixed order: the bit-identity gate
// compares these across reps (and run.py across runs of one build).
std::vector<double> ModeledVector(const Rep& rep) {
  std::vector<double> v = {static_cast<double>(rep.makespan),
                           static_cast<double>(rep.events),
                           static_cast<double>(rep.cap_ops),
                           static_cast<double>(rep.boot_ikc),
                           static_cast<double>(rep.noc.packets),
                           static_cast<double>(rep.noc.total_hops),
                           static_cast<double>(rep.noc.total_queueing),
                           static_cast<double>(rep.dtu.msgs_sent),
                           static_cast<double>(rep.dtu.sends_denied),
                           static_cast<double>(rep.dtu.mem_bytes),
                           static_cast<double>(rep.fs.opens),
                           static_cast<double>(rep.fs.metas),
                           static_cast<double>(rep.fs.extents_handed),
                           rep.kernel_busy_mean,
                           rep.kernel_busy_max,
                           rep.service_busy_mean,
                           rep.offered_rps,
                           static_cast<double>(rep.histogram.Fingerprint() >> 32),
                           static_cast<double>(rep.histogram.Fingerprint() & 0xffffffffu)};
  v.insert(v.end(), rep.latencies_us.begin(), rep.latencies_us.end());
  obs::ForEachKernelMetric(rep.kernel, [&v](const obs::MetricValue& m) {
    v.push_back(static_cast<double>(m.value));
  });
  return v;
}

uint64_t Fingerprint(const std::vector<double>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double d : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Probes: one layer's public function timed in a loop (host ns or us)
// ---------------------------------------------------------------------------

// Runs `batch` (which returns the number of operations it did) until
// `budget_s` is spent (at least 5 batches) and returns the median cost per
// operation in nanoseconds.
double ProbeNs(double budget_s, const std::function<uint64_t()>& batch) {
  std::vector<double> per_op;
  Clock::time_point start = Clock::now();
  while (per_op.size() < 5 || SecondsSince(start) < budget_s) {
    Clock::time_point t0 = Clock::now();
    uint64_t ops = batch();
    per_op.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(std::max<uint64_t>(1, ops)));
  }
  return Median(per_op);
}

// Simulation schedule+run: `depth` self-rescheduling events kept pending
// (the workload's PE count), small pseudo-random delays.
double ProbeSimEvent(double budget_s, uint32_t depth) {
  struct Chain {
    Simulation* sim;
    uint64_t left;
    uint32_t lcg;
    void Fire() {
      if (left == 0) {
        return;
      }
      --left;
      lcg = lcg * 1664525u + 1013904223u;
      sim->Schedule(1 + (lcg >> 26), [this] { Fire(); });
    }
  };
  return ProbeNs(budget_s, [depth] {
    Simulation sim;
    constexpr uint64_t kPerChain = 200;
    std::vector<Chain> chains(depth);
    for (uint32_t i = 0; i < depth; ++i) {
      chains[i] = {&sim, kPerChain, i * 2654435761u};
      chains[i].Fire();
    }
    return sim.RunUntilIdle();
  });
}

// Noc::Send over the workload's mesh: each user PE talks to its kernel, a
// service and the memory tile, and the kernel answers — the shape of
// syscall, file-protocol and memory traffic. Deliveries drain untimed.
double ProbeNocSend(double budget_s, const Rep& rep) {
  const std::vector<std::pair<NodeId, NodeId>>& pairs = rep.noc_pairs;
  uint32_t bytes = static_cast<uint32_t>(Ratio(static_cast<double>(rep.noc.total_bytes),
                                               static_cast<double>(rep.noc.packets)));
  bytes = std::max<uint32_t>(bytes, 16);
  Simulation sim;
  Noc noc(&sim, rep.noc_config);
  size_t cursor = 0;
  std::vector<double> per_op;
  Clock::time_point start = Clock::now();
  while (per_op.size() < 5 || SecondsSince(start) < budget_s) {
    constexpr uint32_t kBatch = 4096;
    Clock::time_point t0 = Clock::now();
    for (uint32_t i = 0; i < kBatch; ++i) {
      const auto& [src, dst] = pairs[cursor];
      cursor = cursor + 1 == pairs.size() ? 0 : cursor + 1;
      noc.Send(src, dst, bytes, [] {});
    }
    per_op.push_back(SecondsSince(t0) * 1e9 / kBatch);
    sim.RunUntilIdle();
  }
  return Median(per_op);
}

struct PayloadMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kTest;
  PayloadMsg() : MsgBody(kKind) {}
};

// Two-PE ping-pong, one request and its reply per round trip: through the
// DTU (Send + Reply), and as bare NoC sends on the same mesh. The difference
// is the DTU's own cost per message.
struct DtuProbe {
  double ns_per_msg = 0;
  double bare_noc_ns_per_msg = 0;
};

DtuProbe ProbeDtuMsg(double budget_s) {
  constexpr uint64_t kRounds = 20'000;
  NocConfig nc;
  nc.width = 2;
  nc.height = 1;
  DtuProbe out;
  out.ns_per_msg = ProbeNs(budget_s, [&nc] {
    Simulation sim;
    Noc noc(&sim, nc);
    DtuFabric fabric(&noc);
    Dtu a(&sim, &fabric, 0);
    Dtu b(&sim, &fabric, 1);
    uint64_t left = kRounds;
    auto send = [&a] {
      Status st = a.Send(0, NewMsg<PayloadMsg>(), /*reply_ep=*/5);
      CHECK(st.ok()) << "dtu probe send failed";
    };
    a.ConfigureRecv(5, 1, [&](EpId, const Message&) {
      if (--left > 0) {
        send();
      }
    });
    b.ConfigureRecv(3, 1, [&](EpId, const Message& msg) { b.Reply(3, msg, NewMsg<PayloadMsg>()); });
    a.ConfigureSend(0, 1, 3, 1);
    send();
    sim.RunUntilIdle();
    CHECK_EQ(left, 0u);
    return 2 * kRounds;
  });
  out.bare_noc_ns_per_msg = ProbeNs(budget_s, [&nc] {
    Simulation sim;
    Noc noc(&sim, nc);
    uint64_t left = 2 * kRounds;
    std::function<void(NodeId)> hop = [&](NodeId from) {
      if (--left > 0) {
        noc.Send(from, 1 - from, 64, [&hop, from] { hop(1 - from); });
      }
    };
    noc.Send(0, 1, 64, [&hop] { hop(1); });
    sim.RunUntilIdle();
    return 2 * kRounds;
  });
  return out;
}

// Obtain + revoke through UserEnv on a 1-kernel (local) or 2-kernel
// (spanning) platform at the library defaults. Returns host us per
// capability operation and the per-op event/packet/message counts, so the
// attribution can subtract the lower layers.
struct KernelProbe {
  double us_per_op = 0;
  double events_per_op = 0;
  double packets_per_op = 0;
  double msgs_per_op = 0;
};

uint64_t DtuMsgs(Platform& p) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < p.pe_count(); ++i) {
    n += p.pe(i)->dtu().stats().msgs_sent;
  }
  return n;
}

KernelProbe ProbeKernel(double budget_s, uint32_t kernels) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = 2;
  DriverRig rig = MakeDriverRig(pc);
  Platform& p = rig.p();
  uint64_t events = 0;
  uint64_t ops = 0;
  uint64_t packets0 = p.noc().stats().packets;
  uint64_t msgs0 = DtuMsgs(p);
  auto expect_ok = [](const SyscallReply& r) { CHECK(r.err == ErrCode::kOk); };
  KernelProbe out;
  out.us_per_op = ProbeNs(budget_s, [&] {
    constexpr int kPairs = 200;
    for (int i = 0; i < kPairs; ++i) {
      CapSel sel = rig.Grant(0);
      rig.client(1).env().Obtain(rig.vpe(0), sel, expect_ok);
      events += p.RunToCompletion();
      rig.client(0).env().Revoke(sel, expect_ok);
      events += p.RunToCompletion();
    }
    ops += 2 * kPairs;
    return uint64_t{2 * kPairs};
  }) / 1e3;
  out.events_per_op = Ratio(static_cast<double>(events), static_cast<double>(ops));
  out.packets_per_op =
      Ratio(static_cast<double>(p.noc().stats().packets - packets0), static_cast<double>(ops));
  out.msgs_per_op = Ratio(static_cast<double>(DtuMsgs(p) - msgs0), static_cast<double>(ops));
  CHECK_EQ(p.TotalDrops(), 0u);
  return out;
}

// FsImage::Lookup over the paths the workload's requests name, on a copy
// of the frozen image (what every service holds).
double ProbeFsLookup(double budget_s, const WorkloadDef& w) {
  FsImage base;
  std::vector<std::string> paths;
  auto add_paths = [&paths](const Trace& t) {
    for (const TraceOp& op : t.ops) {
      if (!op.path.empty()) {
        paths.push_back(op.path);
      }
    }
  };
  if (w.traffic) {
    PopulateNginxImage(&base);
    add_paths(MakeNginxRequestTrace());
  } else {
    PopulateImage(&base, w.app, w.instances);
    for (uint32_t i = 0; i < w.instances; ++i) {
      add_paths(MakeTrace(w.app, i));
    }
  }
  base.Freeze();
  FsImage image = base;
  uint64_t hits = 0;
  // At least 64k lookups per batch: the nginx request names only a few
  // paths, and a short batch would hit the clock's resolution.
  const uint64_t rounds = 1 + (uint64_t{1} << 16) / paths.size();
  double ns = ProbeNs(budget_s, [&] {
    for (uint64_t r = 0; r < rounds; ++r) {
      for (const std::string& path : paths) {
        hits += image.Lookup(path) != nullptr ? 1 : 0;
      }
    }
    return rounds * paths.size();
  });
  CHECK(hits > 0) << "fs probe: no path resolved";
  return ns;
}

// BuildArrivalSchedule for every generator. App workloads have no arrival
// process; there the probe builds the harness's default Poisson schedule
// for one generator per instance, 400 arrivals each (the traffic point's
// per-generator count).
double ProbeArrival(double budget_s, const WorkloadDef& w, uint64_t seed) {
  ArrivalSpec spec = w.traffic ? TrafficOf(w, seed).arrivals : ArrivalSpec{};
  uint32_t generators = w.traffic ? w.servers : w.instances;
  return ProbeNs(budget_s, [&] {
    uint64_t n = 0;
    for (uint32_t i = 0; i < generators; ++i) {
      uint64_t count = w.traffic ? ShareOf(w.warmup, i, generators) +
                                       ShareOf(w.requests, i, generators)
                                 : 400;
      n += BuildArrivalSchedule(spec, seed, i, generators, count).size();
    }
    return n;
  });
}

// LatencyHistogram::Record of values spread like the run's latencies
// (request latencies, or per-instance runtimes on the app workloads).
double ProbeRecord(double budget_s, const Rep& rep) {
  std::vector<Cycles> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(MicrosToCycles(Percentile(rep, (i + 0.5) / 1024.0)));
  }
  return ProbeNs(budget_s, [&] {
    LatencyHistogram h;
    constexpr int kRounds = 256;
    for (int r = 0; r < kRounds; ++r) {
      for (Cycles v : values) {
        h.Record(v);
      }
    }
    CHECK_EQ(h.count(), values.size() * kRounds);
    return static_cast<uint64_t>(h.count());
  });
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Table 3 on the calibration rig (legacy IKC path), as the micro driver
// measures it: local/spanning exchange, local/spanning revoke.
std::vector<double> MeasureTable3() {
  double cycles[4] = {};
  for (uint32_t kernels : {1u, 2u}) {
    DriverRig rig = MakeDriverRig(kernels, 2, KernelMode::kSemperOSMulti);
    CapSel sel = rig.Grant(0);
    Cycles exch = rig.TimedOp([&](std::function<void()> done) {
      rig.client(1).env().Obtain(rig.vpe(0), sel, [done](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk);
        done();
      });
    });
    Cycles rev = rig.TimedOp([&](std::function<void()> done) {
      rig.client(0).env().Revoke(sel, [done](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk);
        done();
      });
    });
    cycles[kernels - 1] = static_cast<double>(exch);
    cycles[2 + kernels - 1] = static_cast<double>(rev);
  }
  return {cycles[0], cycles[1], cycles[2], cycles[3]};
}

void Note(std::map<std::string, uint64_t>* failures, const std::string& what) {
  (*failures)[what]++;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload postmark_local|sqlite_spanning|traffic_nginx "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt-expectation] [--threads N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool corrupt = false;
  uint32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value("--workload");
    } else if (arg == "--seed") {
      seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value("--seconds"), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value("--trace"));
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--corrupt-expectation") {
      corrupt = true;
    } else if (arg == "--threads") {
      threads = static_cast<uint32_t>(std::strtoul(value("--threads"), nullptr, 10));
      if (threads == 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  WorkloadDef w;
  if (!MakeWorkload(workload, tiny, &w) || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  w.threads = threads;
  const uint32_t expected = w.paper_cap_ops + (corrupt ? 1 : 0);
  std::vector<Metric> metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  // Failed checks, message -> how many times it fired.
  std::map<std::string, uint64_t> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::printf("workload %s: %s, %u kernels + %u services, seed %llu, trace %d\n", w.name.c_str(),
              w.traffic ? "open-loop nginx traffic" : ("closed-loop " + w.app + " replay").c_str(),
              w.kernels, w.services, static_cast<unsigned long long>(seed), trace);

  std::printf("build: %s, %s, flags '%s', message/closure pools %s\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_POOLS_OFF ? "off" : "on");

  // Fidelity line: Table 3 calibration drift and the Table 4 op counts.
  std::vector<double> t3 = MeasureTable3();
  double worst = 0;
  for (int i = 0; i < 4; ++i) {
    worst = std::max(worst, std::fabs(t3[i] / kPaperTable3[i] - 1.0));
  }
  std::printf(
      "fidelity: Table 3 (calibration data, checks drift) exchange local %.0f/%.0f spanning "
      "%.0f/%.0f, revoke local %.0f/%.0f spanning %.0f/%.0f cycles model/paper, worst %.2f%%; "
      "Table 4 %s %u ops/instance (library %u, paper %u)\n",
      t3[0], kPaperTable3[0], t3[1], kPaperTable3[1], t3[2], kPaperTable3[2], t3[3],
      kPaperTable3[3], 100.0 * worst, w.traffic ? "n/a" : w.app.c_str(),
      w.traffic ? 0 : expected, w.traffic ? 0 : ExpectedCapOps(w.app), w.paper_cap_ops);
  if (!w.traffic && ExpectedCapOps(w.app) != w.paper_cap_ops) {
    Note(&failures, "library Table 4 count for " + w.app + " drifted from the paper");
  }

  // Saturation searches (modeled). One search's answer moves by several
  // percent with the arrival seed, so the run reports the median over
  // kSaturationSeeds searches whose seeds derive from --seed. Their summed
  // host cost is a layer metric.
  double saturation_rps = 0;
  double saturation_host_s = 0;
  if (w.traffic) {
    std::vector<double> per_seed;
    for (uint32_t i = 0; i < kSaturationSeeds; ++i) {
      SaturationConfig sc;
      sc.traffic = TrafficOf(w, seed * kSaturationSeeds + i);
      sc.traffic.arrivals.rate_rps = w.sat_start_rps;
      sc.traffic.warmup = w.sat_warmup;
      sc.traffic.requests = w.sat_requests;
      sc.sla_p99_us = kSlaP99Us;
      sc.refine_steps = w.sat_refine_steps;
      Clock::time_point t0 = Clock::now();
      SaturationResult sr = FindSaturation(sc);
      saturation_host_s += SecondsSince(t0);
      // Recomputed from the probes: the measured offered rate of the best
      // probe that met the SLA, not the nominal rate FindSaturation returns.
      double best = 0;
      for (const SaturationProbe& probe : sr.probes) {
        if (probe.p99_us <= kSlaP99Us && probe.throughput_rps >= 0.95 * probe.offered_rps) {
          best = std::max(best, probe.offered_rps);
        }
      }
      std::printf("saturation search %u: %.0f req/s measured offered (FindSaturation nominal "
                  "%.0f), %zu probes\n",
                  i, best, sr.saturation_rps, sr.probes.size());
      if (best <= 0) {
        Note(&failures, "saturation search found no probe meeting the SLA");
      }
      per_seed.push_back(best);
    }
    saturation_rps = Median(per_seed);
  }

  // Untraced reps until the time budget is spent (trace 1 keeps the rest
  // for probes and the traced run). The first rep's outputs are the run's
  // modeled results; every later rep must reproduce them.
  double rep_budget = trace == 1 ? seconds * 0.4 : seconds;
  Rep r0;
  size_t reps = 0;
  std::vector<double> host_s, host_rel, ref_s, setup_raw_s, platform_s, attach_s, boot_s;
  std::vector<double> modeled0;
  double peak_rss_mb = 0;
  const uint32_t engine_threads = ResolveThreads(BaseConfig(w, false).threads);
  size_t pinned = 0;
  int fewest_worker_cpus = 0;  // over every rep; 0 when the engine has no workers
  // Reference loops run on each side of a rep (see the loop's end).
  int ref_per_side = 1;
  Clock::time_point start = Clock::now();
  CpuRotation rotation;
  while (reps < 3 || (SecondsSince(start) < rep_budget && reps < 1000)) {
    pinned = rotation.Next(engine_threads);
    // None before the first rep, whose peak RSS is the metric.
    const int ref_before = reps == 0 ? 0 : ref_per_side;
    double ref_total = 0;
    for (int i = 0; i < ref_before; ++i) {
      ref_total += perfbench::ReferenceSeconds();
    }
    Rep rep = RunOnce(w, seed, /*traced=*/false, expected);
    if (!rep.worker_cpus.empty()) {
      int fewest = *std::min_element(rep.worker_cpus.begin(), rep.worker_cpus.end());
      fewest_worker_cpus =
          fewest_worker_cpus == 0 ? fewest : std::min(fewest_worker_cpus, fewest);
      if (pinned != 0 && static_cast<size_t>(fewest) < pinned) {
        Note(&failures, "an engine worker thread may use fewer CPUs than the engine has threads");
      }
    }
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& f : rep.failures) {
      Note(&failures, f);
    }
    if (reps == 0) {
      // Read after the first rep and before any reference run: later reps
      // only add allocator fragmentation, whose amount would depend on how
      // many fit the budget.
      peak_rss_mb = PeakRssMb();
    }
    // The reference loop runs on both sides of the rep on the same CPUs, so
    // both see the same contention; their ratio cancels most of it.
    // Contention changes within a second, so the loops together take about
    // as long as the rep's run: the next rep gets as many per side as half
    // this run takes. `ref` is the mean time of one loop.
    for (int i = 0; i < ref_per_side; ++i) {
      ref_total += perfbench::ReferenceSeconds();
    }
    const double ref = ref_total / (ref_before + ref_per_side);
    ref_per_side = std::max(1, static_cast<int>(std::lround(rep.run_s / ref / 2)));
    host_s.push_back(rep.run_s);
    host_rel.push_back(rep.run_s / ref);
    ref_s.push_back(ref);
    setup_raw_s.push_back(rep.setup_s());
    platform_s.push_back(rep.platform_s);
    attach_s.push_back(rep.attach_s);
    boot_s.push_back(rep.boot_s);
    if (reps++ == 0) {
      modeled0 = ModeledVector(rep);
      r0 = std::move(rep);
    } else if (ModeledVector(rep) != modeled0) {
      Note(&failures, "modeled outputs differ between reps");
      failed += rep.attempted;
    }
  }
  rotation.Restore();
  // A set-up is too short to pair with the loops next to it, so set-up time
  // is scaled by the run's median reference time instead: that follows the
  // contention as it drifts between runs. The result stays in seconds, of a
  // host on which the reference loop takes the nominal time.
  const double setup_s =
      Median(setup_raw_s) * perfbench::kNominalReferenceSeconds / Median(ref_s);
  std::printf("engine: %u thread(s), timed reps pinned to %zu CPU(s) at a time, %zu "
              "worker thread(s), each allowed %d CPU(s)\n",
              engine_threads, pinned, r0.worker_cpus.size(), fewest_worker_cpus);
  const uint64_t n = Samples(r0);
  const double tail_q = TailQuantile(n);
  const double host_med = Median(host_s);
  std::printf(
      "reps %zu: run median %.4f s (%.4f x reference), set-up median %.4f s raw, %.4f s "
      "reference-scaled; modeled: %llu samples, p50 %.3f us, p99 %.3f us, tail p%g %.3f us, "
      "makespan %llu cycles, %llu events\n",
      reps, host_med, Median(host_rel), Median(setup_raw_s), setup_s,
      static_cast<unsigned long long>(n),
      Percentile(r0, 0.5), Percentile(r0, 0.99), 100 * tail_q, Percentile(r0, tail_q),
      static_cast<unsigned long long>(r0.makespan), static_cast<unsigned long long>(r0.events));

  if (trace == 0) {
    add("host_rel", Median(host_rel), "ratio");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", peak_rss_mb, "MB");
    add("p50_us", Percentile(r0, 0.5), "sim_us");
    add("p99_us", Percentile(r0, 0.99), "sim_us");
    add("tail_us", Percentile(r0, tail_q), "sim_us");
    // Closed loop: every client is always busy, so cap ops and completed
    // instances per modeled second are rates at capacity for that client
    // population (saturation_rps is cap_ops_per_s ÷ the Table 4 count).
    // Open loop: below the knee the run's own rate is the generator's, so
    // both are taken at the measured saturation rate found above, cap ops
    // at the run's measured cap ops per request.
    const double cap_ops = static_cast<double>(r0.cap_ops);
    add("cap_ops_per_s",
        w.traffic ? saturation_rps * Ratio(cap_ops, static_cast<double>(r0.units))
                  : Ratio(cap_ops, CyclesToSeconds(r0.makespan)),
        "1/sim_s");
    add("saturation_rps",
        w.traffic ? saturation_rps
                  : Ratio(static_cast<double>(w.instances), CyclesToSeconds(r0.makespan)),
        "1/sim_s");
  } else {
    const double budget = std::max(0.05, seconds * 0.05);
    // Traced run: same configuration, tracing on; its modeled outputs must
    // equal the untraced ones (tracing is observational only).
    Clock::time_point t0 = Clock::now();
    Rep traced = RunOnce(w, seed, /*traced=*/true, expected);
    double traced_total_s = SecondsSince(t0);
    attempted += traced.attempted;
    failed += traced.failed;
    for (const std::string& f : traced.failures) {
      Note(&failures, "traced: " + f);
    }
    if (ModeledVector(traced) != modeled0) {
      Note(&failures, "traced run's modeled outputs differ from the untraced run");
      failed += traced.attempted;
    }
    std::printf("traced run: %.3f s total, run %.4f s, %llu spans (%llu dropped), merge %.4f s\n",
                traced_total_s, traced.run_s, static_cast<unsigned long long>(traced.spans.spans),
                static_cast<unsigned long long>(traced.spans.dropped), traced.spans.merge_s);

    // Cross-check against the library's own experiment shapes.
    if (w.traffic) {
      TrafficResult lib = RunTraffic(TrafficOf(w, seed));
      if (lib.p50_us != Percentile(r0, 0.5) || lib.p99_us != Percentile(r0, 0.99) ||
          lib.p999_us != Percentile(r0, 0.999) || lib.events != r0.events ||
          lib.offered_rps != r0.offered_rps || !(lib.latency == r0.histogram)) {
        Note(&failures, "modeled results differ from RunTraffic");
      }
    } else {
      AppRunConfig ac;
      ac.app = w.app;
      ac.kernels = w.kernels;
      ac.services = w.services;
      ac.instances = w.instances;
      AppRunResult lib = RunApp(ac);
      double sum = 0;
      for (double v : r0.latencies_us) {
        sum += v;
      }
      if (lib.makespan != r0.makespan || lib.events != r0.events ||
          lib.total_cap_ops != r0.cap_ops || lib.max_runtime_us != r0.latencies_us.back() ||
          lib.mean_kernel_utilization != r0.kernel_busy_mean ||
          std::fabs(lib.mean_runtime_us - sum / w.instances) > 1e-9 * lib.mean_runtime_us) {
        Note(&failures, "modeled results differ from RunApp");
      }
    }

    // Probes.
    uint32_t pes = r0.noc_config.width * r0.noc_config.height;
    double sim_ns = ProbeSimEvent(budget, pes);
    double noc_ns = ProbeNocSend(budget, r0);
    double sim_small_ns = ProbeSimEvent(budget, 2);
    DtuProbe dtu = ProbeDtuMsg(budget);
    KernelProbe local = ProbeKernel(budget, 1);
    KernelProbe spanning = ProbeKernel(budget, 2);
    double fs_ns = ProbeFsLookup(budget, w);
    double arrival_ns = ProbeArrival(budget, w, seed);
    double record_ns = ProbeRecord(budget, r0);

    const KernelStats& k = r0.kernel;
    const double spanning_ops =
        static_cast<double>(k.spanning_obtains + k.spanning_delegates + k.spanning_revokes);
    const double cap_ops = static_cast<double>(r0.cap_ops);
    const double units = static_cast<double>(r0.units);

    add("host.run_s", host_med, "s");
    add("host.ref_s", Median(ref_s), "s");
    add("host.setup_raw_s", Median(setup_raw_s), "s");
    add("setup.platform_s", Median(platform_s), "s");
    add("setup.attach_s", Median(attach_s), "s");
    add("setup.boot_s", Median(boot_s), "s");
    add("boot.ikc_msgs", static_cast<double>(r0.boot_ikc), "count");

    add("sim.events", static_cast<double>(r0.events), "count");
    add("sim.host_ns_per_event", host_med * 1e9 / static_cast<double>(r0.events), "ns");
    add("sim.events_per_s", static_cast<double>(r0.events) / host_med, "1/s");
    add("sim.probe_ns_per_event", sim_ns, "ns");
    // The serial engine is the library default; these read 0 unless a
    // default change turns the sharded engine on.
    const EngineStats& e = r0.engine;
    add("engine.windows", static_cast<double>(e.windows), "count");
    add("engine.events_per_window",
        Ratio(static_cast<double>(r0.events), static_cast<double>(e.windows)), "ratio");
    add("engine.handoff_share",
        Ratio(static_cast<double>(e.handoff_sends), static_cast<double>(r0.noc.packets)), "ratio");

    add("noc.packets", static_cast<double>(r0.noc.packets), "count");
    add("noc.hops_per_packet", Ratio(static_cast<double>(r0.noc.total_hops),
                                     static_cast<double>(r0.noc.packets)), "hops");
    add("noc.queue_cycles_per_packet", Ratio(static_cast<double>(r0.noc.total_queueing),
                                             static_cast<double>(r0.noc.packets)), "sim_cycles");
    add("noc.probe_ns_per_send", noc_ns, "ns");

    add("dtu.msgs_sent", static_cast<double>(r0.dtu.msgs_sent), "count");
    add("dtu.sends_denied", static_cast<double>(r0.dtu.sends_denied), "count");
    add("dtu.mem_bytes", static_cast<double>(r0.dtu.mem_bytes), "bytes");
    add("dtu.drops", static_cast<double>(r0.drops), "count");
    add("dtu.probe_ns_per_msg", dtu.ns_per_msg, "ns");

    add("pe.kernel_busy_mean", r0.kernel_busy_mean, "ratio");
    add("pe.kernel_busy_max", r0.kernel_busy_max, "ratio");
    add("pe.service_busy_mean", r0.service_busy_mean, "ratio");

    add("kernel.syscalls", static_cast<double>(k.syscalls), "count");
    add("kernel.cap_ops", cap_ops, "count");
    add("kernel.spanning_share", Ratio(spanning_ops, cap_ops), "ratio");
    add("kernel.ikc_sent", static_cast<double>(k.ikc_sent), "count");
    add("kernel.ikc_per_spanning_op",
        Ratio(static_cast<double>(k.ikc_sent - r0.boot_ikc), spanning_ops), "ratio");
    add("kernel.ikc_flow_queued", static_cast<double>(k.ikc_flow_queued), "count");
    add("kernel.revoke_reqs_queued", static_cast<double>(k.revoke_reqs_queued), "count");
    add("kernel.ops_per_batch", Ratio(static_cast<double>(k.ikc_batched_ops),
                                      static_cast<double>(k.ikc_batches_sent)), "ratio");
    add("kernel.ddl_cache_hit_ratio",
        Ratio(static_cast<double>(k.ddl_cache_hits),
              static_cast<double>(k.ddl_cache_hits + k.ddl_cache_misses)), "ratio");
    add("kernel.threads_in_use_max", static_cast<double>(k.threads_in_use_max), "count");
    add("kernel.probe_us_per_local_op", local.us_per_op, "us");
    add("kernel.probe_us_per_spanning_op", spanning.us_per_op, "us");

    add("fs.opens", static_cast<double>(r0.fs.opens), "count");
    add("fs.metas", static_cast<double>(r0.fs.metas), "count");
    add("fs.extents_handed", static_cast<double>(r0.fs.extents_handed), "count");
    add("fs.probe_ns_per_lookup", fs_ns, "ns");

    double nominal = w.traffic ? w.rate_rps : 0.0;
    add("traffic.offered_rps", r0.offered_rps, "1/sim_s");
    add("traffic.offered_vs_nominal", Ratio(r0.offered_rps, nominal), "ratio");
    // Client credit wait (generator lateness): the queue spans' time.
    add("traffic.queue_cycles_per_req",
        Ratio(traced.spans.self_cycles[static_cast<size_t>(obs::SpanKind::kQueue)], units),
        "sim_cycles");
    add("traffic.probe_ns_per_arrival", arrival_ns, "ns");
    add("traffic.probe_ns_per_record", record_ns, "ns");
    // Host time spent producing saturation_rps: the searches, or on the
    // closed-loop apps the first rep, whose makespan defines it.
    add("traffic.saturation_host_s", w.traffic ? saturation_host_s : r0.setup_s() + r0.run_s,
        "s");

    static const std::pair<obs::SpanKind, const char*> kKinds[] = {
        {obs::SpanKind::kQueue, "queue"},   {obs::SpanKind::kTransit, "transit"},
        {obs::SpanKind::kSyscall, "syscall"}, {obs::SpanKind::kIkc, "ikc"},
        {obs::SpanKind::kIkcRtt, "ikc_rtt"}, {obs::SpanKind::kAsk, "ask"},
        {obs::SpanKind::kBatch, "batch"},   {obs::SpanKind::kRelay, "relay"},
        {obs::SpanKind::kServe, "serve"}};
    for (const auto& [kind, name] : kKinds) {
      add(std::string("span.") + name + ".self_cycles",
          Ratio(traced.spans.self_cycles[static_cast<size_t>(kind)], units), "sim_cycles");
    }
    add("obs.trace_overhead", Ratio(traced.run_s, host_med), "ratio");
    add("obs.spans", static_cast<double>(traced.spans.spans), "count");
    add("obs.spans_dropped", static_cast<double>(traced.spans.dropped), "count");
    add("obs.merge_s", traced.spans.merge_s, "s");

    // Attribution: exclusive probe cost x the run's call count. A probe
    // that nests lower layers has their cost, measured at the probe's own
    // operating point, subtracted: the DTU ping-pong minus a bare NoC
    // ping-pong; a kernel op minus its DTU messages and its other events.
    // The traffic layer's run-time work, one LatencyHistogram::Record per
    // measured request, is under 0.1% of host.run_s, so it stays unattributed.
    double dtu_excl = std::max(0.0, dtu.ns_per_msg - dtu.bare_noc_ns_per_msg);
    auto kernel_excl = [&](const KernelProbe& kp) {
      return std::max(0.0, kp.us_per_op * 1e3 - kp.msgs_per_op * dtu.ns_per_msg -
                               std::max(0.0, kp.events_per_op - kp.msgs_per_op) * sim_small_ns);
    };
    double local_syscalls = static_cast<double>(k.syscalls) - spanning_ops;
    double est_sim = sim_ns * static_cast<double>(r0.events) * 1e-9;
    double est_noc = noc_ns * static_cast<double>(r0.noc.packets) * 1e-9;
    double est_dtu = dtu_excl * static_cast<double>(r0.dtu.msgs_sent) * 1e-9;
    double est_kernel =
        (kernel_excl(local) * local_syscalls + kernel_excl(spanning) * spanning_ops) * 1e-9;
    double est_fs = fs_ns * static_cast<double>(r0.fs.opens + r0.fs.metas) * 1e-9;
    add("host.sim_s_est", est_sim, "s");
    add("host.noc_s_est", est_noc, "s");
    add("host.dtu_s_est", est_dtu, "s");
    add("host.kernel_s_est", est_kernel, "s");
    add("host.fs_s_est", est_fs, "s");
    add("host.unattributed_frac",
        1.0 - Ratio(est_sim + est_noc + est_dtu + est_kernel + est_fs, host_med),
        "ratio");
  }

  for (const auto& [what, count] : failures) {
    std::printf("CHECK FAILED (x%llu): %s\n", static_cast<unsigned long long>(count),
                what.c_str());
  }
  if (!failures.empty() && failed == 0) {
    failed = std::max<uint64_t>(1, attempted);
  }
  failed = std::min(failed, attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6f (%llu failed / %llu attempted)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx", static_cast<unsigned long long>(Fingerprint(modeled0)));
  json += ", \"modeled_fingerprint\": " + JsonString(fp);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace semperos

int main(int argc, char** argv) { return semperos::Main(argc, argv); }
