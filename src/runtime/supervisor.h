// The elastic-recovery supervisor: the paper's reconfigure-and-continue loop (§1, Fig. 1)
// as one automated code path.
//
// Supervisor::Train drives a TrainingRun with periodic async checkpoints. When a rank fails
// mid-run, the surviving ranks unwind (comm.h): at their first wait that needs a killed
// rank, which is marked dead, or at the watchdog for a hung one. The supervisor then runs:
//
//   1. DETECT    — TryTrain returns the root-cause RankFailure instead of deadlocking.
//   2. TEARDOWN  — abandons checkpoint saves whose gather the dead rank stranded, drains the
//                  flusher (a fully-gathered save still commits — it is exactly the
//                  checkpoint recovery wants), and destroys the poisoned World.
//   3. SHRINK    — picks a fallback ParallelConfig for the reduced rank count via the
//                  strategy-shrink policy (drop DP first, then TP, then PP, then SP).
//   4. RESUME    — rebuilds trainers on the new strategy and drives ResumeElastic, which
//                  converts the checkpoint through UCP when the strategy changed. A world
//                  rebuilt over a committed tag skips the weight draw (InitMode::kForLoad):
//                  the load overwrites every value it would produce.
//
// Every phase is timed per recovery (RecoveryTiming) — the recovery-time split
// bench/fig13_recovery_time.cc reports. See docs/fault_tolerance.md.

#ifndef UCP_SRC_RUNTIME_SUPERVISOR_H_
#define UCP_SRC_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/ckpt/async/engine.h"
#include "src/runtime/trainer.h"
#include "src/store/remote_store.h"
#include "src/ucp/elastic.h"

namespace ucp {

// Axes the shrink policy may reduce, tried in the order given. The default order drops DP
// first (pure capacity — no reshard of a replicated dimension) and SP last (changing the
// sequence split perturbs the most runtime shapes).
enum class ShrinkAxis { kDp, kTp, kPp, kSp };

// Picks a ParallelConfig with world_size() <= max_ranks by repeatedly reducing one axis at
// a time in `order`, keeping every divisibility constraint the trainer enforces (batch vs
// dp*micro, heads/kv/vocab/hidden/ffn-or-experts vs tp, layers vs pp, seq vs sp). For each
// axis the largest valid smaller degree is preferred, so capacity loss is minimal.
// kInvalidArgument when max_ranks < 1; kFailedPrecondition when no valid shrink exists.
Result<ParallelConfig> ShrinkStrategy(
    const ModelConfig& model, int global_batch, const ParallelConfig& current, int max_ranks,
    const std::vector<ShrinkAxis>& order = {ShrinkAxis::kDp, ShrinkAxis::kTp, ShrinkAxis::kPp,
                                            ShrinkAxis::kSp});

struct SupervisorOptions {
  // Checkpoint directory. Required: recovery without a checkpoint restarts from scratch.
  std::string ckpt_dir;
  // When set ("unix:/path" / "tcp:host:port"), saves go through a ucp_serverd at this
  // endpoint (the daemon must serve the same root as ckpt_dir — the shared-filesystem
  // deployment) while resume/validation read ckpt_dir directly. Each rebuilt engine dials
  // fresh; transport loss during a save is handled by the RemoteStore's lease/reconnect
  // machinery per store_options, and a save that stays unreachable past the reconnect
  // deadline is skipped (save.async.skipped_unavailable), not a training abort.
  std::string store_endpoint;
  RemoteStoreOptions store_options;
  // SaveAsync every N completed iterations (0 disables checkpointing).
  int checkpoint_every = 10;
  // `async.job` doubles as the supervisor's tag namespace: saves, retention, debris sweeps
  // and resumes all stay inside it, so several supervised jobs can share one ckpt_dir.
  AsyncCheckpointOptions async;
  // Passed to each rebuilt World; how long a silent hang takes to become a detected failure.
  std::chrono::milliseconds watchdog_timeout{60000};
  // Give up after this many recoveries in one Train call.
  int max_recoveries = 8;
  std::vector<ShrinkAxis> shrink_order = {ShrinkAxis::kDp, ShrinkAxis::kTp, ShrinkAxis::kPp,
                                          ShrinkAxis::kSp};
  // Native-restart mode: rebuild on the SAME strategy (the failed rank's slot is assumed
  // re-provisioned), so resume takes the native load path. The fig13 baseline arm.
  bool rebuild_same_strategy = false;
  // Optional user hook, invoked before the supervisor's own checkpoint hook each iteration.
  std::function<void(RankTrainer&, int64_t)> after_iteration;
};

// One recovery's phase timing, in seconds of wall clock on the supervising thread (detect is
// the longest time a survivor was blocked before it unwound: on a death mark or at the
// watchdog; 0 when no survivor was blocked). The same phases are emitted as "recovery.*" trace
// spans (src/obs/trace.h) on the supervising thread; this struct remains the programmatic
// report, the spans feed the Chrome trace and flight recorder.
struct RecoveryTiming {
  RankFailure failure;
  ParallelConfig old_strategy;
  ParallelConfig new_strategy;
  std::string resumed_tag;  // empty when no checkpoint existed (restarted from scratch)
  ResumeReport::Path resume_path = ResumeReport::Path::kNative;
  // What surfaced the failure: true for a watchdog expiry (how hangs are seen), false for
  // the dead rank's mark (how kills are seen, at the first wait that needs the rank).
  bool watchdog_detected = false;
  double detect_seconds = 0.0;
  double teardown_seconds = 0.0;  // abandon + drain engine, destroy run
  double rebuild_seconds = 0.0;   // new World + trainers (no weight draw over a tag)
  double convert_seconds = 0.0;   // UCP convert (or cache hit) inside ResumeElastic
  double load_seconds = 0.0;      // native or UCP load inside ResumeElastic
  double total_seconds = 0.0;     // sum of the above
};

struct SupervisorReport {
  bool ok = false;
  Status status;  // why Train gave up, when !ok
  // Final loss per iteration in [first, last]: iterations re-run after a resume report the
  // re-run's value (identical when resume is bit-exact — what the fault-tolerance tests
  // assert).
  std::vector<double> losses;
  int recoveries = 0;
  std::vector<RecoveryTiming> timings;  // one entry per recovery, in order
  ParallelConfig final_strategy;
};

// Owns the train -> fail -> shrink -> resume loop. One instance supervises one logical
// training job; each Train call runs to completion or gives up.
class Supervisor {
 public:
  Supervisor(TrainerConfig config, SupervisorOptions options);

  SupervisorReport Train(int64_t first_iteration, int64_t last_iteration);

  // The strategy the most recent Train call ended on (== config strategy before any Train).
  const ParallelConfig& current_strategy() const { return current_strategy_; }

 private:
  TrainerConfig config_;
  SupervisorOptions options_;
  ParallelConfig current_strategy_;
};

}  // namespace ucp

#endif  // UCP_SRC_RUNTIME_SUPERVISOR_H_
