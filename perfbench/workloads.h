// The three closed-loop workloads of the checkpoint benchmark (see README.md for why each
// exists and which layers it loads) and the helpers they share.

#ifndef UCP_PERFBENCH_WORKLOADS_H_
#define UCP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/runtime/trainer.h"

namespace ucp {
namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  // root for stores and sockets, wiped before and after the run
  std::string out_dir;  // where a traced run leaves its Chrome trace
};

RunResult RunTrainAsync(const RunOptions& options);
RunResult RunRemoteStore(const RunOptions& options);
RunResult RunElasticRecovery(const RunOptions& options);

// ---- Shared helpers ---------------------------------------------------------------------

// A trainer config whose data order and initial weights come from the workload seed.
TrainerConfig SeededConfig(ModelConfig model, const ParallelConfig& strategy, uint64_t seed);

// Bytes of every regular file under `dir` (recursively).
uint64_t TreeBytes(const std::string& dir);

// Removes and recreates `dir`.
void FreshDir(const std::string& dir);

// Times the public Crc32 and SerializeBundle on the largest shard file under `tag_dir` and
// records tensor.serialize_mib_s and common.crc32_mib_s.
void ShardMicroTimings(const std::string& tag_dir, RunResult* result);

// Sets every per-layer metric to 0, so a workload only fills in the layers it exercises.
void ZeroPerLayer(RunResult* result);
void SetLayer(RunResult* result, const std::string& name, double value);

// Records an end-to-end metric and prints it with the workload's own name for it.
void SetE2e(RunResult* result, const std::string& metric, const std::string& alias,
            double value, const std::string& unit);

// Wall-clock figures move with hypervisor steal on a shared host, so they are per-layer
// metrics (`wall.<metric>`) beside their CPU twins, not end-to-end ones. Latencies are
// printed as median, sample count and the highest percentile with ten samples beyond it.
void SetWallLatency(RunResult* result, const std::string& metric, const std::string& alias,
                    const std::vector<double>& samples_ms);
void SetWall(RunResult* result, const std::string& metric, const std::string& alias,
             double value, const std::string& unit);

// setup_s is the median CPU time (all threads) of the set-up repetitions; the median wall
// time goes to wall.setup_s.
void SetSetup(RunResult* result, const std::vector<double>& cpu_s,
              const std::vector<double>& wall_s);

// Writes the current trace rings as a Chrome trace to <out_dir>/<workload>.trace.json.
// A traced run calls it on its last traced cycle, before draining the rings.
void ExportTrace(const RunOptions& options, const std::string& workload, RunResult* result);

// The traced-run overhead of tracing on a CPU twin, in percent of the untraced value.
double OverheadPct(double traced_cpu, double untraced_cpu);

}  // namespace perfbench
}  // namespace ucp

#endif  // UCP_PERFBENCH_WORKLOADS_H_
