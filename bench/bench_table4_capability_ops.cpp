// Table 4: number of capability operations for the selected applications.
//
//     Benchmark   Cap. ops   Cap. ops/s   Cap. ops   Cap. ops/s
//     #instances      1           1          512         512
//     tar             21       7,295       10,752      191,703
//     untar           11       4,012        5,632      100,772
//     find             3       1,310        1,536       27,096
//     SQLite          24       5,987       12,288      207,072
//     LevelDB         22       8,749       11,264      201,204
//     PostMark        38      21,166       19,456      348,285
//
// "The capability operations per second are the average rate of capability
// operations over the runtime. ... The capability operations per second for
// 512 benchmark instances are retrieved when employing 64 kernels and 64
// filesystem services." (paper §5.3.1)
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "system/experiment.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

struct PaperRow {
  const char* name;
  uint32_t ops1;
  uint32_t ops_s1;
  uint32_t ops512;
  uint32_t ops_s512;
};

constexpr PaperRow kPaper[] = {
    {"tar", 21, 7295, 10752, 191703},     {"untar", 11, 4012, 5632, 100772},
    {"find", 3, 1310, 1536, 27096},       {"sqlite", 24, 5987, 12288, 207072},
    {"leveldb", 22, 8749, 11264, 201204}, {"postmark", 38, 21166, 19456, 348285},
};

void PrintTable() {
  bench::Header("Table 4: Capability operations of the selected applications",
                "Hille et al., SemperOS (ATC'19), Table 4");
  uint32_t many = bench::FastMode() ? 128 : 512;
  uint32_t kernels = bench::FastMode() ? 16 : 64;
  std::printf("%-10s | %8s %10s | %9s %12s | paper(1 / 512 inst)\n", "Benchmark", "ops(1)",
              "ops/s(1)", "ops(n)", "ops/s(n)");
  for (const PaperRow& row : kPaper) {
    AppRunConfig solo_config;
    solo_config.app = row.name;
    solo_config.kernels = 1;
    solo_config.services = 1;
    solo_config.instances = 1;
    AppRunResult solo = RunApp(solo_config);

    AppRunConfig many_config;
    many_config.app = row.name;
    many_config.kernels = kernels;
    many_config.services = kernels;
    many_config.instances = many;
    AppRunResult parallel = RunApp(many_config);

    std::printf("%-10s | %8llu %10.0f | %9llu %12.0f | (%u @ %u/s ; %u @ %u/s)\n", row.name,
                (unsigned long long)solo.total_cap_ops, solo.cap_ops_per_sec,
                (unsigned long long)parallel.total_cap_ops, parallel.cap_ops_per_sec, row.ops1,
                row.ops_s1, row.ops512, row.ops_s512);
  }
  std::printf("\n  n = %u instances on %u kernels + %u services\n", many, kernels, kernels);
  bench::Footnote(
      "per-instance op counts and single-instance rates match the paper exactly; the "
      "512-instance rate is reported over the parallel makespan, which exceeds the paper's "
      "value: the paper's 512-instance rates imply runtimes 15-31x the single-instance ones "
      "(PostMark: 19,456 ops / 348,285 ops/s = 55.9 ms vs 38 / 21,166 = 1.8 ms), far below "
      "the parallel efficiencies Fig. 6 reports for 512 instances, so the model follows Fig. 6");
}

void BM_CapOpsRate(benchmark::State& state) {
  const PaperRow& row = kPaper[state.range(0)];
  for (auto _ : state) {
    AppRunConfig config;
    config.app = row.name;
    config.kernels = 8;
    config.services = 8;
    config.instances = 64;
    AppRunResult result = RunApp(config);
    WorkloadResult out;
    out.Add("cap_ops_per_s", result.cap_ops_per_sec);
    bench::Report(state, result.makespan, out);
  }
  state.SetLabel(row.name);
}
BENCHMARK(BM_CapOpsRate)->DenseRange(0, 5)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semperos

SEMPEROS_BENCH_MAIN(semperos::PrintTable)
