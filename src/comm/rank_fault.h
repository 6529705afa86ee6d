// Rank-failure model for the simulated runtime: the failure descriptor every layer shares,
// the one exception type that may cross stack frames, and a deterministic rank-kill
// injector mirroring the filesystem injector in src/common/fault_fs.h.
//
// Failure semantics are fail-stop. A killed rank stops participating: it deposits nothing
// further into collectives and sends nothing over the mailbox. Before its thread exits it
// marks itself dead in its World (World::MarkDead), the way a launcher sees a process
// exit. A peer whose collective or P2P receive still lacks the dead rank's deposit or
// message unwinds at once with the victim's failure and marks itself dead too, so every
// live rank stops at its first wait that cannot complete. A hung rank (RankFaultKind::kHang)
// stops without a mark: peers see it only when a wait exceeds the world's watchdog timeout
// (comm.h), and the detecting rank then aborts the whole world. Either way the recovery
// supervisor (src/runtime/supervisor.h) catches the failure, shrinks the parallelism
// strategy, and resumes from the newest committed checkpoint.
//
// Exceptions: the library otherwise returns Status, but a rank failure must unwind
// arbitrary model/optimizer code blocked deep inside a collective, which is exactly what
// exceptions are for. RankFailureError is thrown only by this module and by the abortable
// waits in comm.cc, and is caught only at rank-thread top level (RunSpmdFallible /
// TrainingRun::TryTrain). It never crosses the public Status-based API.

#ifndef UCP_SRC_COMM_RANK_FAULT_H_
#define UCP_SRC_COMM_RANK_FAULT_H_

#include <cstdint>
#include <exception>
#include <string>

namespace ucp {

// Where a rank kill can be injected / a hang detected. The collective sites fire at entry
// to the corresponding ProcessGroup call — the victim dies without depositing, which is
// what leaves peers blocked mid-collective.
enum class FaultSite {
  kIterationStart = 0,  // top of RankTrainer::TrainIteration
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kBroadcast,
  kBarrier,
  kP2PSend,
  kP2PRecv,
  kBeforeSave,   // in the checkpoint hook, before this rank's SaveAsync snapshot
  kAsyncFlush,   // in the checkpoint hook, after the snapshot, while the flush is in flight
};

const char* FaultSiteName(FaultSite site);

// One rank failure, as seen by whoever reports it.
struct RankFailure {
  enum class Kind {
    kInjected,  // this rank's own (simulated) death; marked, so peers see it at once
    kHang,      // this rank's own (simulated) hang; unmarked, so peers wait for the watchdog
    kWatchdog,  // a peer declared this rank failed after a watchdog timeout
  };
  Kind kind = Kind::kWatchdog;
  int rank = -1;             // failed (or suspected) global rank; -1 when unknown
  int64_t iteration = -1;    // iteration the reporting rank was executing; -1 outside training
  std::string site;          // FaultSiteName(...) or a watchdog wait-site label
  std::string detail;        // free-form: who detected it, how long they waited, ...
  double blocked_seconds = 0.0;  // how long the detector waited before declaring

  std::string ToString() const;
};

// Thrown by the comm layer (watchdog / world abort) and by CheckRankFault (injected kill).
class RankFailureError : public std::exception {
 public:
  explicit RankFailureError(RankFailure failure);
  const RankFailure& failure() const { return failure_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  RankFailure failure_;
  std::string what_;
};

// What an armed plan does to its victim.
enum class RankFaultKind {
  kKill,  // the rank dies and is marked dead: peers unwind at the first wait that needs it
  kHang,  // the rank stops unmarked: only the watchdog detects it
};

// Deterministic rank-fault plan: kill (or hang) `rank` at the `nth` hit of `site` during
// `iteration`. Process-global like FaultPlan; the plan fires exactly once and stays spent
// until DisarmRankFaults().
struct RankFaultPlan {
  int rank = -1;
  int64_t iteration = 0;
  FaultSite site = FaultSite::kAllReduce;
  int nth = 1;  // fire on the nth matching site hit (1-based) within that iteration
  RankFaultKind kind = RankFaultKind::kKill;
};

void ArmRankFault(const RankFaultPlan& plan);
void DisarmRankFaults();
bool RankFaultFired();

// RAII arming for tests.
class ScopedRankFault {
 public:
  explicit ScopedRankFault(const RankFaultPlan& plan) { ArmRankFault(plan); }
  ~ScopedRankFault() { DisarmRankFaults(); }
  ScopedRankFault(const ScopedRankFault&) = delete;
  ScopedRankFault& operator=(const ScopedRankFault&) = delete;
};

// Thread-local identity of the simulated rank running on this thread, consulted by the
// injector (does the armed plan target me?) and by the watchdog (who detected the failure,
// at which iteration). RunSpmd sets the rank at thread start; TrainIteration refreshes the
// iteration each step.
struct FaultContext {
  int rank = -1;
  int64_t iteration = -1;
};
void SetFaultContext(int rank, int64_t iteration);
FaultContext CurrentFaultContext();

// The injection hook: throws RankFailureError (Kind::kInjected for a kill, Kind::kHang for a
// hang) when the armed plan matches this thread's context and `site`. Disarmed, it is a
// single relaxed atomic load.
void CheckRankFault(FaultSite site);

}  // namespace ucp

#endif  // UCP_SRC_COMM_RANK_FAULT_H_
