// Ablations of the reproduction's modeling and protocol choices
// (docs/architecture.md; (e) is §9 there).
//
// Not a paper figure — quantifies how the reproduction's knobs shape the
// headline results:
//  (a) revocation message batching (the paper's own §5.2 future-work idea),
//      i.e. kCapBatch containers folding the per-child REVOKE_REQs, against
//      Figure 5's tree revocation;
//  (b) the DDL-decode cost that separates SemperOS from the M3 baseline
//      (Table 3's +10.7% / +40.3% columns);
//  (c) the per-peer in-flight window M_inflight of §4.1;
//  (d) NoC link contention modelling;
//  (e) capability-IKC batching against the Figure 8 observation that
//      kernels are "mostly handling capability operations".
// In both (a) and (e), "off" is batch_max_ops = 1 (every request leaves as
// its own message) and "on" the default batch of up to 8.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "system/client.h"
#include "system/experiment.h"

namespace semperos {
namespace {

Cycles TreeRevoke(uint32_t children, bool batching) {
  PlatformConfig pc;
  pc.kernels = 13;
  pc.users = children + 1;
  if (!batching) {
    pc.batch_max_ops = 1;
  }
  DriverRig rig = MakeDriverRig(pc);
  CapSel root = rig.BuildTree(children);
  return rig.TimedOp([&](std::function<void()> done) {
    rig.client(0).env().Revoke(root, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done();
    });
  });
}

void AblationBatching() {
  bench::Header("Ablation (a): revocation message batching (batch_max_ops 1 vs 8)",
                "paper §5.2: \"we believe that this can be further improved by the use of "
                "message batching\"");
  std::printf("%-10s %16s %16s %10s\n", "children", "off [us]", "on [us]", "speedup");
  for (uint32_t n : bench::Sweep<uint32_t>({16, 32, 64, 96, 128})) {
    Cycles plain = TreeRevoke(n, false);
    Cycles batched = TreeRevoke(n, true);
    std::printf("%-10u %16.2f %16.2f %9.2fx\n", n, CyclesToMicros(plain),
                CyclesToMicros(batched), double(plain) / double(batched));
  }
  bench::Footnote("off sends one REVOKE_REQ per child; on folds the ones bound for the same "
                  "peer kernel into kCapBatch containers of up to 8");
}

Cycles LocalExchange(Cycles ddl_decode) {
  PlatformConfig pc;
  pc.kernels = 1;
  pc.users = 2;
  pc.timing.ddl_decode = ddl_decode;
  DriverRig rig = MakeDriverRig(pc);
  CapSel owner_sel = rig.Grant(0);
  return rig.TimedOp([&](std::function<void()> done) {
    rig.client(1).env().Obtain(rig.vpe(0), owner_sel, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done();
    });
  });
}

void AblationDdl() {
  bench::Header("Ablation (b): DDL key-decode cost",
                "Table 3: \"Analyzing the DDL key ... introduces overhead in the local case\"");
  std::printf("%-18s %18s %14s\n", "ddl_decode [cyc]", "local exchange", "vs M3 (+%)");
  Cycles m3 = LocalExchange(0);
  for (Cycles ddl : {0u, 58u, 115u, 230u, 460u}) {
    Cycles t = LocalExchange(ddl);
    std::printf("%-18llu %18llu %13.1f%%\n", (unsigned long long)ddl, (unsigned long long)t,
                100.0 * (double(t) / double(m3) - 1.0));
  }
  bench::Footnote("115 cycles x 3 decodes reproduces the paper's +10.7%");
}

Cycles SpanningChainRevoke(uint32_t inflight, uint32_t length) {
  PlatformConfig pc;
  pc.kernels = 2;
  pc.users = 2;
  pc.max_inflight = inflight;
  DriverRig rig = MakeDriverRig(pc);
  CapSel root = rig.BuildChain(length, {0, 1});
  return rig.TimedOp([&](std::function<void()> done) {
    rig.client(0).env().Revoke(root, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done();
    });
  });
}

void AblationInflight() {
  bench::Header("Ablation (c): in-flight window per peer kernel (M_inflight)",
                "paper §4.1: \"we limit the number of in-flight messages to four\"");
  std::printf("%-12s %26s\n", "M_inflight", "spanning chain(40) [us]");
  for (uint32_t w : {1u, 2u, 4u, 8u}) {
    Cycles t = SpanningChainRevoke(w, 40);
    std::printf("%-12u %26.2f\n", w, CyclesToMicros(t));
  }
  bench::Footnote("credits return at dispatch, so the window barely gates nested revocations; "
                  "it exists to bound receive-slot usage (64-kernel limit)");
}

void AblationContention() {
  bench::Header("Ablation (d): NoC link-contention model",
                "per-link FIFO queueing vs unloaded latencies");
  for (bool contention : {true, false}) {
    AppRunConfig config;
    config.app = "postmark";
    config.kernels = 8;
    config.services = 8;
    config.instances = 128;
    // Piggyback on RunApp by flipping the default NocConfig via timing? The
    // harness builds its own platform; run the microscale variant directly.
    PlatformConfig pc;
    pc.kernels = 8;
    pc.users = 64;
    pc.noc.model_contention = contention;
    DriverRig rig = MakeDriverRig(pc);
    // 64 concurrent spanning obtains from one hot owner.
    CapSel owner_sel = rig.Grant(0);
    int done = 0;
    Cycles t0 = rig.p().sim().Now();
    for (size_t i = 1; i < 64; ++i) {
      rig.client(i).env().Obtain(rig.vpe(0), owner_sel, [&done](const SyscallReply& r) {
        CHECK(r.err == ErrCode::kOk);
        done++;
      });
    }
    rig.p().RunToCompletion();
    std::printf("  contention=%s: 63 concurrent obtains drained in %.2f us (queueing %llu cyc)\n",
                contention ? "on " : "off", CyclesToMicros(rig.p().sim().Now() - t0),
                (unsigned long long)rig.p().noc().stats().total_queueing);
  }
}

// The cross-kernel hot-owner storm: every remote client obtains the same
// capability from client 0 concurrently, so each remote kernel has several
// OBTAIN_REQs (and the owner several acks per peer) eligible for one
// container. This is the traffic Figure 8 blames for kernel dependence —
// the app traces keep sessions group-local, so the chatter optimisation is
// invisible there and the storm isolates it instead.
struct ChatterRun {
  Cycles span = 0;
  KernelStats stats;
};

ChatterRun ObtainStorm(uint32_t kernels, bool batching) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = 8 * kernels;
  if (!batching) {
    pc.batch_max_ops = 1;
  }
  DriverRig rig = MakeDriverRig(pc);
  CapSel owner_sel = rig.Grant(0);
  int done = 0;
  int expected = 0;
  Cycles t0 = rig.p().sim().Now();
  for (size_t i = 1; i < rig.clients.size(); ++i) {
    if (rig.kernel_of_client(i) == rig.kernel_of_client(0)) {
      continue;  // only spanning obtains: the local ones never touch IKC
    }
    ++expected;
    rig.client(i).env().Obtain(rig.vpe(0), owner_sel, [&done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk);
      done++;
    });
  }
  rig.p().RunToCompletion();
  CHECK(done == expected);
  ChatterRun run;
  run.span = rig.p().sim().Now() - t0;
  run.stats = rig.p().TotalKernelStats();
  return run;
}

void AblationCapBatching() {
  bench::Header("Ablation (e): capability-IKC batching (batch_max_ops 1 vs 8)",
                "paper §5.3.2 / Figure 8: kernels are \"mostly handling capability "
                "operations\" — coalescing that chatter is the before/after here");
  std::printf("%-10s %12s %12s %9s %9s %9s %8s %10s\n", "kernels", "off [us]", "on [us]",
              "IKC off", "IKC on", "batches", "ops/b", "DDL hit%");
  for (uint32_t kernels : bench::Sweep<uint32_t>({4, 8, 16, 32})) {
    ChatterRun off = ObtainStorm(kernels, false);
    ChatterRun on = ObtainStorm(kernels, true);
    double ops_per_batch = on.stats.ikc_batches_sent == 0
                               ? 0.0
                               : double(on.stats.ikc_batched_ops) /
                                     double(on.stats.ikc_batches_sent);
    uint64_t probes = on.stats.ddl_cache_hits + on.stats.ddl_cache_misses;
    std::printf("%-10u %12.2f %12.2f %9llu %9llu %9llu %8.1f %9.1f%%\n", kernels,
                CyclesToMicros(off.span), CyclesToMicros(on.span),
                (unsigned long long)off.stats.ikc_sent, (unsigned long long)on.stats.ikc_sent,
                (unsigned long long)on.stats.ikc_batches_sent, ops_per_batch,
                probes == 0 ? 0.0 : 100.0 * double(on.stats.ddl_cache_hits) / double(probes));
  }
  bench::Footnote("off sends every request as its own message; on folds same-peer requests "
                  "into kCapBatch containers. Both serve repeat remote-DDL decodes from the "
                  "epoch-invalidated cache (the hit rate shown is on's)");
}

void BM_CapBatchingObtainStorm(benchmark::State& state) {
  bool batching = state.range(0) != 0;
  for (auto _ : state) {
    ChatterRun run = ObtainStorm(16, batching);
    WorkloadResult out;
    out.Add("ikc_sent", double(run.stats.ikc_sent));
    out.Add("ikc_batches_sent", double(run.stats.ikc_batches_sent));
    out.Add("ikc_batched_ops", double(run.stats.ikc_batched_ops));
    out.Add("ddl_cache_hits", double(run.stats.ddl_cache_hits));
    bench::Report(state, run.span, out);
  }
  state.SetLabel(batching ? "batch_max_ops=8" : "batch_max_ops=1");
}
BENCHMARK(BM_CapBatchingObtainStorm)->Arg(0)->Arg(1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

void BM_TreeRevokeBatched(benchmark::State& state) {
  bool batched = state.range(0) != 0;
  for (auto _ : state) {
    bench::ReportSpan(state, TreeRevoke(96, batched));
  }
  state.SetLabel(batched ? "batch_max_ops=8" : "batch_max_ops=1");
}
BENCHMARK(BM_TreeRevokeBatched)->Arg(0)->Arg(1)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::AblationBatching, semperos::AblationDdl, semperos::AblationInflight, semperos::AblationContention, semperos::AblationCapBatching)
