// Ablation: loader worker-thread count for the sliced UCP load path. Sweeps
// UcpLoadOptions::num_threads over a larger-than-default checkpoint (TP2 PP2 DP2 ZeRO-1
// target) and reports load time plus bytes read per rank. Thread 0 reads inline on the
// calling rank thread — the memory-minimal configuration; on machines with real I/O
// parallelism the curve flattens once threads cover the per-rank atom count.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/tensor/tensor_file.h"

namespace ucp {
namespace {

struct Fixture {
  std::string ucp_dir;
  std::unique_ptr<TrainingRun> run;
};

Fixture& GetFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    ModelConfig model = Gpt3Scaled();
    model.num_layers = 8;
    model.hidden = 128;
    model.ffn_hidden = 512;
    const ParallelConfig strategy{2, 2, 2, 1, 1, 1};
    const std::string ckpt_dir = bench::FreshDir("ablation_load_threads");
    TrainingRun source(bench::MakeConfig(model, strategy));
    source.Train(1, 2);
    bench::SaveAll(source, ckpt_dir, 2);
    f->ucp_dir = bench::BenchRoot() + "/ablation_load_threads_ucp";
    UCP_CHECK(RemoveAll(f->ucp_dir).ok());
    Result<ConvertStats> stats =
        ConvertToUcp(ckpt_dir, TagForIteration(2), f->ucp_dir, {.num_threads = 4});
    UCP_CHECK(stats.ok()) << stats.status().ToString();
    f->run = std::make_unique<TrainingRun>(bench::MakeConfig(model, strategy));
    return f;
  }();
  return *fixture;
}

void BM_SlicedLoad(benchmark::State& state) {
  Fixture& f = GetFixture();
  UcpLoadOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  ResetTensorIoStats();
  for (auto _ : state) {
    f.run->Run([&](RankTrainer& t) {
      Status s = LoadUcpCheckpoint(f.ucp_dir, t, options);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }
  const TensorIoStats io = GetTensorIoStats();
  const uint64_t loads = static_cast<uint64_t>(state.iterations()) *
                         static_cast<uint64_t>(f.run->world_size());
  state.counters["bytes_per_rank"] = benchmark::Counter(
      static_cast<double>(io.bytes_read) / static_cast<double>(loads));
  state.counters["read_calls_per_rank"] = benchmark::Counter(
      static_cast<double>(io.read_calls) / static_cast<double>(loads));
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("ablation/load_threads", ucp::BM_SlicedLoad)
      ->Arg(0)  // inline on the rank thread
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.3);
  benchmark::RunSpecifiedBenchmarks();
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}
