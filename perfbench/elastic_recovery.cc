// elastic_recovery: repeated Supervisor::Train cycles of a LLaMA-style job with GQA on
// TP2, so conversion covers variable-size fused-QKV fragments. Cycles take turns: a
// fault-free run, then two that kill one rank with ArmRankFault under a short watchdog,
// one resuming reconfigured (2 -> 1 rank through UCP convert and load) and one with
// rebuild_same_strategy (the native path, no conversion). Covers detection, teardown,
// rebuild, convert and load; little saving and no wire traffic.
//
//   primary   = recovery: RecoveryTiming::total_seconds of the reconfigured resumes
//               (kill -> training resumed on the shrunk strategy).
//   secondary = restart: the same for the native same-strategy restarts.
//   CPU twins: process CPU of a killed Supervisor::Train minus the median process CPU of
//               the run's fault-free Supervisor::Train with the same options, per
//               checkpoint MiB. Both make the same saves, so the twins hold recovery work,
//               not checkpoint saves.

#include <cmath>
#include <cstring>

#include "perfbench/workloads.h"
#include "src/comm/rank_fault.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"
#include "src/runtime/supervisor.h"

namespace ucp {
namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int64_t kLastIteration = 3;
constexpr int kCheckpointEvery = 2;
constexpr std::chrono::milliseconds kWatchdog{300};
constexpr double kLossTolerance = 5e-3;

ModelConfig JobModel() {
  ModelConfig m = LlamaScaled();
  m.hidden = 128;
  m.ffn_hidden = 384;
  return m;
}

// A fault-free run is the baseline a killed run's CPU is compared with.
enum class CycleKind { kFaultFree, kReconfigured, kNative };

struct CycleOutcome {
  CycleKind kind = CycleKind::kFaultFree;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  RecoveryTiming timing;
};

}  // namespace

RunResult RunElasticRecovery(const RunOptions& options) {
  RunResult result;
  ZeroPerLayer(&result);
  const TrainerConfig cfg =
      SeededConfig(JobModel(), ParallelConfig{2, 1, 1, 1, 0, 1}, options.seed);
  const std::string root = options.run_dir + "/elastic_recovery";
  FreshDir(root);
  Rng schedule(options.seed * 7919 + 17);

  // The uninterrupted reference every native restart must reproduce bit for bit.
  std::vector<double> reference;
  std::vector<double> reference_iter_ms;
  double reference_cpu_ms = 0.0;
  double comm_calls = 0.0, comm_bytes = 0.0, comm_wait_ms = 0.0;
  auto build_reference = [&] {
    MetricsWindow window;
    TrainingRun run(cfg);
    std::vector<double> marks{WallSeconds()};
    const double c0 = ProcessCpuSeconds();
    std::vector<double> losses =
        run.Train(1, kLastIteration, [&](RankTrainer& t, int64_t) {
          if (t.rank() == 0) {
            marks.push_back(WallSeconds());
          }
        });
    reference_cpu_ms = (ProcessCpuSeconds() - c0) * 1e3 / static_cast<double>(kLastIteration);
    comm_calls = window.CounterSum("comm.", ".calls") / static_cast<double>(kLastIteration);
    comm_bytes = window.CounterSum("comm.", ".bytes") / static_cast<double>(kLastIteration);
    comm_wait_ms = window.HistSumAll("comm.", ".wait_seconds") * 1e3 /
                   static_cast<double>(kLastIteration);
    reference_iter_ms.clear();
    for (size_t i = 1; i < marks.size(); ++i) {
      reference_iter_ms.push_back((marks[i] - marks[i - 1]) * 1e3);
    }
    return losses;
  };

  int cycle_index = 0;
  auto run_cycle = [&](CycleKind kind, bool traced) {
    const std::string dir = root + "/c" + std::to_string(cycle_index++);
    const bool killed = kind != CycleKind::kFaultFree;
    const bool reconfigured = kind == CycleKind::kReconfigured;
    RankFaultPlan plan;
    // Always the step right after the first checkpoint: the seed picks the victim and the
    // site, and every cycle repeats the same amount of work around the recovery.
    plan.iteration = kCheckpointEvery + 1;
    plan.rank = static_cast<int>(schedule.NextBounded(2));
    plan.site = schedule.NextBounded(2) == 0 ? FaultSite::kIterationStart : FaultSite::kAllReduce;
    plan.nth = 1;

    SupervisorOptions sup;
    sup.ckpt_dir = dir;
    sup.checkpoint_every = kCheckpointEvery;
    sup.watchdog_timeout = kWatchdog;
    sup.rebuild_same_strategy = !reconfigured;
    obs::SetTraceEnabled(traced);
    CycleOutcome out;
    out.kind = kind;
    out.traced = traced;
    const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
    if (killed) {
      ArmRankFault(plan);
    }
    SupervisorReport report = Supervisor(cfg, sup).Train(1, kLastIteration);
    DisarmRankFaults();
    out.wall_s = WallSeconds() - t0;
    out.cpu_s = ProcessCpuSeconds() - c0;
    obs::SetTraceEnabled(false);
    result.attempted += 1;

    const std::string label =
        killed ? Fmt("cycle %d (%s, kill rank %d at step %lld %s)", cycle_index - 1,
                     reconfigured ? "reconfigured" : "native", plan.rank,
                     static_cast<long long>(plan.iteration), FaultSiteName(plan.site))
               : Fmt("cycle %d (fault-free)", cycle_index - 1);
    const int recoveries = killed ? 1 : 0;
    if (!report.ok || report.recoveries != recoveries ||
        report.timings.size() != static_cast<size_t>(recoveries)) {
      result.Fail(Fmt("%s: expected %d recoveries, got %d (%s)", label.c_str(), recoveries,
                      report.recoveries, report.status.ToString().c_str()));
      UCP_CHECK(RemoveAll(dir).ok());
      return out;
    }
    if (killed) {
      out.timing = report.timings[0];
      const bool native_path = out.timing.resume_path == ResumeReport::Path::kNative;
      if (native_path == reconfigured || out.timing.resumed_tag.empty()) {
        result.Fail(label + ": resumed through the wrong path or from no checkpoint");
      }
    }
    if (report.losses.size() != reference.size()) {
      result.Fail(label + ": wrong number of losses");
    } else {
      for (size_t i = 0; i < reference.size(); ++i) {
        const bool ok = reconfigured
                            ? std::fabs(report.losses[i] - reference[i]) <= kLossTolerance
                            : std::memcmp(&report.losses[i], &reference[i], sizeof(double)) == 0;
        if (!ok) {
          result.Fail(Fmt("%s: loss at step %zu is %.17g, reference %.17g", label.c_str(),
                          i + 1, report.losses[i], reference[i]));
          break;
        }
      }
    }
    UCP_CHECK(RemoveAll(dir).ok());
    const std::string recovery =
        killed ? Fmt("recovery %.1f ms (detect %.1f), ", out.timing.total_seconds * 1e3,
                     out.timing.detect_seconds * 1e3)
               : "";
    result.Line(Fmt("%s: %scycle %.1f ms cpu %.1f ms", label.c_str(), recovery.c_str(),
                    out.wall_s * 1e3, out.cpu_s * 1e3));
    return out;
  };

  // ---- Set-up, several times: the reference run plus one warm-up recovery. -------------
  std::vector<double> setup_s, setup_cpu;
  double mib = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
    std::vector<double> losses = build_reference();
    if (i > 0 &&
        std::memcmp(losses.data(), reference.data(), sizeof(double) * losses.size()) != 0) {
      result.Fail("reference losses differ between identical set-ups");
    }
    reference = losses;
    run_cycle(CycleKind::kReconfigured, /*traced=*/false);
    setup_s.push_back(WallSeconds() - t0);
    setup_cpu.push_back(ProcessCpuSeconds() - c0);
  }
  result.Line(Fmt("loss at step %lld: %.17g", static_cast<long long>(kLastIteration),
                  reference.back()));
  {
    // The checkpoint size: one save of the job on its starting strategy.
    const std::string dir = root + "/size";
    SupervisorOptions sup;
    sup.ckpt_dir = dir;
    sup.checkpoint_every = kCheckpointEvery;
    SupervisorReport report = Supervisor(cfg, sup).Train(1, kCheckpointEvery);
    UCP_CHECK(report.ok) << report.status;
    mib = static_cast<double>(TreeBytes(dir + "/" + TagForIteration(kCheckpointEvery))) /
          (1024.0 * 1024.0);
    UCP_CHECK(RemoveAll(dir).ok());
  }
  result.Line(Fmt("checkpoint: %.2f MiB per save, %s, kill cycles of %lld steps", mib,
                  cfg.strategy.ToString().c_str(), static_cast<long long>(kLastIteration)));
  if (options.trace) {
    obs::SetTraceRingCapacity(1 << 16);
    obs::ResetTrace();
  }

  // ---- Measured loop: fault-free, reconfigured and native cycles take turns. -----------
  constexpr CycleKind kRound[] = {CycleKind::kFaultFree, CycleKind::kReconfigured,
                                  CycleKind::kNative};
  constexpr int kRoundSize = 3;
  std::vector<CycleOutcome> cycles;
  SpanLedger ledger;
  MetricsWindow window;
  const HostCpu host0 = ReadHostCpu();
  const double t_start = WallSeconds();
  const double c_start = ProcessCpuSeconds();
  // Whole rounds; a traced run ends on a traced round, whose trace is exported.
  for (int n = 0; WallSeconds() - t_start < options.seconds ||
                  n % (options.trace ? 2 * kRoundSize : kRoundSize) != 0;
       ++n) {
    const bool traced = options.trace && (n / kRoundSize) % 2 == 1;
    cycles.push_back(run_cycle(kRound[n % kRoundSize], traced));
    if (options.trace) {
      if (traced && WallSeconds() - t_start >= options.seconds) {
        ExportTrace(options, "elastic_recovery", &result);
      }
      ledger.Harvest();
    }
  }
  const double wall = WallSeconds() - t_start;
  const double cpu = ProcessCpuSeconds() - c_start;
  const HostCpu host1 = ReadHostCpu();

  // ---- End-to-end metrics (untraced cycles). -------------------------------------------
  std::vector<double> fault_free_cpu;
  for (const CycleOutcome& c : cycles) {
    if (!c.traced && c.kind == CycleKind::kFaultFree) {
      fault_free_cpu.push_back(c.cpu_s);
    }
  }
  const double baseline_cpu_s = Quantile(fault_free_cpu, 0.5);
  std::vector<double> recovery_ms, restart_ms, recovery_cpu, restart_cpu;
  double killed_wall = 0.0, killed_cpu = 0.0, killed_iters = 0.0;
  for (const CycleOutcome& c : cycles) {
    if (c.traced || c.timing.total_seconds <= 0.0) {
      continue;
    }
    const bool reconfigured = c.kind == CycleKind::kReconfigured;
    (reconfigured ? recovery_ms : restart_ms).push_back(c.timing.total_seconds * 1e3);
    (reconfigured ? recovery_cpu : restart_cpu)
        .push_back((c.cpu_s - baseline_cpu_s) * 1e3 / mib);
    killed_wall += c.wall_s;
    killed_cpu += c.cpu_s;
    killed_iters += static_cast<double>(kLastIteration);
  }
  result.Line(Fmt("fault-free run: cpu %s", SummaryText(Summarize(fault_free_cpu), "s").c_str()));
  SetSetup(&result, setup_cpu, setup_s);
  SetWall(&result, "train_it_s", "train_it_s (killed runs)", killed_iters / killed_wall, "1/s");
  SetE2e(&result, "train_cpu_ms_per_it", "train_cpu_ms_per_it (killed runs)",
         killed_cpu * 1e3 / killed_iters, "ms");
  SetWallLatency(&result, "primary_ms_p50", "recovery_ms_p50", recovery_ms);
  SetE2e(&result, "primary_cpu_ms_per_mib", "recovery_cpu_ms_per_mib",
         Quantile(recovery_cpu, 0.5), "ms/MiB");
  SetWallLatency(&result, "secondary_ms_p50", "restart_ms_p50", restart_ms);
  SetE2e(&result, "secondary_cpu_ms_per_mib", "restart_cpu_ms_per_mib",
         Quantile(restart_cpu, 0.5), "ms/MiB");
  result.Line(Fmt("host: wall %.2f s, process cpu %.2f s, steal %.2f%%", wall, cpu,
                  StealPct(host0, host1)));
  SetLayer(&result, "host.steal_pct", StealPct(host0, host1));

  // ---- Per-layer metrics (traced run; phases from RecoveryTiming of every cycle). ------
  if (options.trace) {
    auto phase = [&](double RecoveryTiming::*field, bool reconfigured_only) {
      std::vector<double> v;
      for (const CycleOutcome& c : cycles) {
        if (c.kind == CycleKind::kReconfigured ||
            (!reconfigured_only && c.kind == CycleKind::kNative)) {
          v.push_back(c.timing.*field * 1e3);
        }
      }
      return Quantile(v, 0.5);
    };
    double traced_cpu = 0.0, untraced_cpu = 0.0, traced_n = 0.0, untraced_n = 0.0;
    double resumes = 0.0;
    for (const CycleOutcome& c : cycles) {
      (c.traced ? traced_cpu : untraced_cpu) += c.cpu_s;
      (c.traced ? traced_n : untraced_n) += 1.0;
      resumes += c.kind == CycleKind::kFaultFree ? 0.0 : 1.0;
    }
    const double commits = window.Counter("save.async.commits");
    SetLayer(&result, "runtime.iter_ms_p50", Quantile(reference_iter_ms, 0.5));
    SetLayer(&result, "runtime.iter_cpu_ms", reference_cpu_ms);
    SetLayer(&result, "comm.calls_per_it", comm_calls);
    SetLayer(&result, "comm.bytes_per_it", comm_bytes);
    SetLayer(&result, "comm.wait_ms_per_it", comm_wait_ms);
    SetLayer(&result, "ckpt.snapshot_ms_p50",
             Quantile(ledger.Durations("save.async.snapshot"), 0.5));
    SetLayer(&result, "ckpt.flush_ms_p50", Quantile(ledger.Durations("save.async.flush"), 0.5));
    SetLayer(&result, "ckpt.bytes_per_save",
             commits > 0.0 ? window.Counter("save.async.bytes_written") / commits : 0.0);
    SetLayer(&result, "ckpt.commits", commits);
    SetLayer(&result, "ckpt.drops", window.Counter("save.async.drops"));
    SetLayer(&result, "ckpt.failures", window.Counter("save.async.failures"));
    SetLayer(&result, "store.fsyncs_per_save",
             commits > 0.0 ? window.Counter("fs.fsync.calls") / commits : 0.0);
    SetLayer(&result, "tensor.read_calls_per_load",
             window.Counter("tensor.io.read_calls") / resumes);
    SetLayer(&result, "tensor.chunks_verified_per_load",
             window.Counter("tensor.io.chunks_verified") / resumes);
    SetLayer(&result, "tensor.read_amplification",
             window.Counter("tensor.io.bytes_read") / resumes / (mib * 1024.0 * 1024.0));
    const double converts = window.Counter("convert.runs");
    SetLayer(&result, "ucp.convert_ms_p50", phase(&RecoveryTiming::convert_seconds, true));
    SetLayer(&result, "ucp.extract_ms",
             converts > 0.0 ? window.HistSum("convert.extract_seconds") * 1e3 / converts : 0.0);
    SetLayer(&result, "ucp.union_ms",
             converts > 0.0 ? window.HistSum("convert.union_seconds") * 1e3 / converts : 0.0);
    SetLayer(&result, "ucp.load_ms_p50", Quantile(ledger.Durations("ucp.load"), 0.5));
    const double hits = window.Counter("ucp.slice_cache.hits");
    const double lookups = hits + window.Counter("ucp.slice_cache.misses");
    SetLayer(&result, "ucp.slice_cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
    SetLayer(&result, "recovery.detect_ms_p50", phase(&RecoveryTiming::detect_seconds, false));
    SetLayer(&result, "recovery.teardown_ms_p50",
             phase(&RecoveryTiming::teardown_seconds, false));
    SetLayer(&result, "recovery.rebuild_ms_p50", phase(&RecoveryTiming::rebuild_seconds, false));
    SetLayer(&result, "recovery.convert_ms_p50", phase(&RecoveryTiming::convert_seconds, true));
    SetLayer(&result, "recovery.load_ms_p50", phase(&RecoveryTiming::load_seconds, false));
    SetLayer(&result, "obs.trace_overhead_pct",
             OverheadPct(traced_cpu / std::max(1.0, traced_n),
                         untraced_cpu / std::max(1.0, untraced_n)));
    {
      const std::string dir = root + "/micro";
      SupervisorOptions sup;
      sup.ckpt_dir = dir;
      sup.checkpoint_every = kCheckpointEvery;
      SupervisorReport report = Supervisor(cfg, sup).Train(1, kCheckpointEvery);
      UCP_CHECK(report.ok) << report.status;
      ShardMicroTimings(dir + "/" + TagForIteration(kCheckpointEvery), &result);
    }
    result.Line("span self time (traced cycles):");
    result.Line(ledger.Text(16));
    result.Line(Fmt("trace events dropped: %llu",
                    static_cast<unsigned long long>(ledger.dropped())));
  }
  return result;
}

}  // namespace perfbench
}  // namespace ucp
