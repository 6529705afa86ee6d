// Recovery-time split after a mid-run rank failure: native restart vs reconfigured resume,
// and a kill vs a hang.
//
// Every arm shares one fault scenario — TP2.PP2.DP2 (8 ranks), async checkpoint every 5
// iterations, the last rank stopped inside the gradient all-reduce of iteration 8, a short
// watchdog. The supervisor then recovers:
//
//   native_restart      — kill + rebuild_same_strategy: the failed slot is assumed
//                         re-provisioned, so resume loads the committed global_step5 through
//                         the strict native loader (the "wait for a replacement node"
//                         baseline).
//   reconfigured_resume — kill + the UCP path: shrink to the 7 surviving slots (DP first ->
//                         TP2.PP2.DP1 on 4 ranks), convert the checkpoint through UCP, and
//                         continue degraded immediately.
//   hang_reconfigured   — the reconfigured path after a hang instead of a kill: the victim
//                         leaves no death mark, so only the watchdog detects it.
//
// BENCH_recovery.json reports the detect / teardown / rebuild / convert / load split per
// arm (RecoveryTiming, as measured by the supervisor) and what detected the failure. The
// paper-level point: the reconfigured arm pays a one-time conversion but needs no
// replacement hardware, and the split shows where that time goes; a killed rank is seen at
// the first wait that needs it, a hung one only after the watchdog.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/runtime/supervisor.h"

namespace ucp {
namespace {

constexpr int64_t kLastIteration = 15;
constexpr int64_t kKillIteration = 8;
constexpr int kVictim = 7;
constexpr int kWatchdogMs = 300;

Json RunArm(const char* label, bool rebuild_same_strategy, RankFaultKind fault) {
  const std::string dir = bench::FreshDir(std::string("fig13_") + label);
  TrainerConfig cfg = bench::MakeConfig(Gpt3Scaled(), {2, 2, 2, 1, 1, 1});

  SupervisorOptions options;
  options.ckpt_dir = dir + "/ckpt";
  options.checkpoint_every = 5;
  options.watchdog_timeout = std::chrono::milliseconds(kWatchdogMs);
  options.rebuild_same_strategy = rebuild_same_strategy;
  Supervisor supervisor(cfg, options);

  ArmRankFault({kVictim, kKillIteration, FaultSite::kAllReduce, /*nth=*/1, fault});
  SupervisorReport report = supervisor.Train(1, kLastIteration);
  DisarmRankFaults();
  UCP_CHECK(report.ok) << report.status.ToString();
  UCP_CHECK(report.recoveries == 1);
  const RecoveryTiming& t = report.timings[0];

  const char* detected_by = t.watchdog_detected ? "watchdog" : "death_mark";
  std::printf(
      "fig13/%s: detect=%.3fs (%s) teardown=%.3fs rebuild=%.3fs convert=%.3fs load=%.3fs "
      "total=%.3fs (%s -> %s, resumed %s)\n",
      label, t.detect_seconds, detected_by, t.teardown_seconds, t.rebuild_seconds,
      t.convert_seconds, t.load_seconds, t.total_seconds, t.old_strategy.ToString().c_str(),
      t.new_strategy.ToString().c_str(), t.resumed_tag.c_str());

  JsonObject arm;
  arm["arm"] = label;
  arm["fault"] = fault == RankFaultKind::kHang ? "hang" : "kill";
  arm["detected_by"] = detected_by;
  arm["old_strategy"] = t.old_strategy.ToString();
  arm["new_strategy"] = t.new_strategy.ToString();
  arm["resumed_tag"] = t.resumed_tag;
  arm["resume_path"] = t.resume_path == ResumeReport::Path::kNative ? "native" : "ucp";
  arm["detect_seconds"] = t.detect_seconds;
  arm["teardown_seconds"] = t.teardown_seconds;
  arm["rebuild_seconds"] = t.rebuild_seconds;
  arm["convert_seconds"] = t.convert_seconds;
  arm["load_seconds"] = t.load_seconds;
  arm["total_seconds"] = t.total_seconds;
  return Json(std::move(arm));
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);

  ucp::JsonArray arms;
  arms.emplace_back(ucp::RunArm("native_restart", /*rebuild_same_strategy=*/true,
                                ucp::RankFaultKind::kKill));
  arms.emplace_back(ucp::RunArm("reconfigured_resume", /*rebuild_same_strategy=*/false,
                                ucp::RankFaultKind::kKill));
  arms.emplace_back(ucp::RunArm("hang_reconfigured", /*rebuild_same_strategy=*/false,
                                ucp::RankFaultKind::kHang));

  ucp::JsonObject doc;
  doc["benchmark"] = "fig13_recovery_time";
  doc["strategy"] = ucp::ParallelConfig{2, 2, 2, 1, 1, 1}.ToString();
  doc["world_size"] = 8;
  doc["victim_rank"] = ucp::kVictim;
  doc["kill_iteration"] = ucp::kKillIteration;
  doc["watchdog_ms"] = ucp::kWatchdogMs;
  doc["arms"] = std::move(arms);

  ucp::bench::WriteBenchReport("BENCH_recovery.json", std::move(doc));
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}
