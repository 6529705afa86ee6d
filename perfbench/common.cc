#include <algorithm>
#include <filesystem>

#include "perfbench/workloads.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"

namespace ucp {
namespace perfbench {

TrainerConfig SeededConfig(ModelConfig model, const ParallelConfig& strategy, uint64_t seed) {
  model.init_seed = 0x9e3779b97f4a7c15ull * (seed + 1);
  // Few tokens per step: the workloads exist to load the checkpoint layers, so a training
  // step is kept cheap next to a save, a load or a recovery of the same state.
  model.max_seq_len = 16;
  TrainerConfig cfg;
  cfg.model = model;
  cfg.strategy = strategy;
  cfg.global_batch = 2;
  cfg.lr.max_lr = 1e-3f;
  cfg.lr.min_lr = 1e-5f;
  cfg.lr.warmup_iters = 10;
  cfg.lr.decay_iters = 100000;
  cfg.data_seed = 1000 + seed;
  return cfg;
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

void FreshDir(const std::string& dir) {
  UCP_CHECK(RemoveAll(dir).ok());
  UCP_CHECK(MakeDirs(dir).ok());
}

void ShardMicroTimings(const std::string& tag_dir, RunResult* result) {
  std::string shard;
  uint64_t largest = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(tag_dir, ec)) {
    if (entry.is_regular_file(ec) && entry.file_size(ec) > largest) {
      largest = entry.file_size(ec);
      shard = entry.path().string();
    }
  }
  Result<TensorBundle> bundle = LoadBundle(shard);
  if (!bundle.ok()) {
    result->Fail("micro-timing: cannot load shard " + shard + ": " + bundle.status().ToString());
    return;
  }
  // Each loop runs for at least 0.3 s of wall time so the rate is not a single-call reading.
  std::vector<uint8_t> bytes;
  double serialized_mib = 0.0;
  double t0 = WallSeconds();
  do {
    obs::ScopedSpan span("bench.serialize_bundle");
    Result<std::vector<uint8_t>> out = SerializeBundle(*bundle);
    UCP_CHECK(out.ok()) << out.status();
    bytes = std::move(*out);
    serialized_mib += static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  } while (WallSeconds() - t0 < 0.3);
  SetLayer(result, "tensor.serialize_mib_s", serialized_mib / (WallSeconds() - t0));

  uint32_t crc = 0;
  double crc_mib = 0.0;
  t0 = WallSeconds();
  do {
    obs::ScopedSpan span("bench.crc32");
    crc = Crc32(bytes.data(), bytes.size());
    crc_mib += static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  } while (WallSeconds() - t0 < 0.3);
  SetLayer(result, "common.crc32_mib_s", crc_mib / (WallSeconds() - t0));
  result->Line(Fmt("micro-timings on %s (%.2f MiB serialized, crc %08x)", shard.c_str(),
                   static_cast<double>(bytes.size()) / (1024.0 * 1024.0), crc));
}

void ZeroPerLayer(RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    result->layer[name] = Metric{0.0, unit};
  }
}

void SetLayer(RunResult* result, const std::string& name, double value) {
  auto it = result->layer.find(name);
  UCP_CHECK(it != result->layer.end()) << "unknown per-layer metric " << name;
  it->second.value = value;
}

void SetWallLatency(RunResult* result, const std::string& metric, const std::string& alias,
                    const std::vector<double>& samples_ms) {
  const Summary s = Summarize(samples_ms);
  SetLayer(result, "wall." + metric, s.p50);
  result->Line(Fmt("wall %-23s %-28s %s", metric.c_str(), alias.c_str(),
                   SummaryText(s, "ms").c_str()));
}

void SetWall(RunResult* result, const std::string& metric, const std::string& alias,
             double value, const std::string& unit) {
  SetLayer(result, "wall." + metric, value);
  result->Line(Fmt("wall %-23s %-28s %.4f %s", metric.c_str(), alias.c_str(), value,
                   unit.c_str()));
}

void SetE2e(RunResult* result, const std::string& metric, const std::string& alias,
            double value, const std::string& unit) {
  result->e2e[metric] = Metric{value, unit};
  result->Line(Fmt("e2e  %-23s %-28s %.4f %s", metric.c_str(), alias.c_str(), value,
                   unit.c_str()));
}

void SetSetup(RunResult* result, const std::vector<double>& cpu_s,
              const std::vector<double>& wall_s) {
  auto each = [](const std::vector<double>& v) {
    std::string text;
    for (double s : v) {
      text += Fmt(" %.3f", s);
    }
    return text;
  };
  result->e2e["setup_s"] = Metric{Quantile(cpu_s, 0.5), "s"};
  result->Line(Fmt("e2e  %-23s %-28s cpu median %.4f s of%s", "setup_s", "setup_s",
                   Quantile(cpu_s, 0.5), each(cpu_s).c_str()));
  SetWall(result, "setup_s", "setup_s (wall)", Quantile(wall_s, 0.5), "s");
}

void ExportTrace(const RunOptions& options, const std::string& workload, RunResult* result) {
  const std::string path = options.out_dir + "/" + workload + ".trace.json";
  Status s = WriteFileAtomic(path, obs::ExportChromeTraceJson());
  if (!s.ok()) {
    result->Line("trace export failed: " + s.ToString());
  }
}

double OverheadPct(double traced_cpu, double untraced_cpu) {
  return untraced_cpu > 0.0 ? 100.0 * (traced_cpu - untraced_cpu) / untraced_cpu : 0.0;
}

}  // namespace perfbench
}  // namespace ucp
