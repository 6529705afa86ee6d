// Simulated collective communication for the SPMD training runtime.
//
// This is the repository's NCCL substitute (see DESIGN.md). A World hosts `size` simulated
// ranks, each running on its own OS thread. ProcessGroup exposes the collectives the
// parallelism strategies need: all-reduce (gradient sync in DP, partial-sum reduction in
// row-parallel TP), all-gather (ZeRO-3 parameter reconstruction, TP output assembly),
// reduce-scatter (ZeRO-2/3 gradient partitioning), broadcast, barrier, and point-to-point
// send/recv (pipeline-parallel activations).
//
// Determinism: every reduction iterates contributions in *group rank order*, independent of
// thread arrival order. Each rank computes the reduction locally from the same ordered slot
// vector, so all ranks observe bit-identical results and repeated runs are reproducible —
// the property the resume-bit-exactness tests rely on.
//
// Fault tolerance: every blocking wait (collective rendezvous, P2P receive) is abortable.
// The World carries a dead-member set, an epoch'd abort flag and a watchdog deadline. A
// rank that stops for good marks itself dead (MarkDead) before its thread exits; a wait
// that still lacks a dead member's deposit or message unwinds at once with that member's
// failure, and the unwinding rank marks itself dead too, so each live rank stops at its
// first wait that cannot complete. Waits that need no dead member proceed. A rank that
// stops without a mark (a hang) is caught by the watchdog: a rank blocked longer than
// `WorldOptions::watchdog_timeout` declares the suspected peer failed, aborts the whole
// world (first caller wins), and every blocked rank unwinds with a RankFailureError
// instead of deadlocking. A world with a dead member or an abort is expected to be torn
// down and rebuilt by the recovery supervisor (src/runtime/supervisor.h). See
// docs/fault_tolerance.md for the failure model and the safety argument for deposited
// stack buffers.

#ifndef UCP_SRC_COMM_COMM_H_
#define UCP_SRC_COMM_COMM_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/comm/rank_fault.h"
#include "src/tensor/tensor.h"

namespace ucp {

// Tunables for one simulated cluster.
struct WorldOptions {
  // A rank blocked inside a collective or P2P receive for longer than this is treated as
  // evidence of a peer failure: the waiter aborts the world and unwinds. Generous default so
  // ordinary tests never trip it; fault-tolerance tests dial it down to seconds.
  std::chrono::milliseconds watchdog_timeout{60000};
};

// While an instance is in scope on the calling rank's thread, that rank's collective and
// P2P waits skip the watchdog deadline (world-abort and dead-member checks stay active, so
// the rank still unwinds promptly when a failure is detected elsewhere). For phases where a peer
// legitimately performs unbounded-duration local work while others wait — e.g. rank 0
// converting a checkpoint to UCP behind the resume barrier — which would otherwise read as
// a silent hang. Nests; every rank entering such a phase suspends its own waits.
class ScopedWatchdogSuspend {
 public:
  ScopedWatchdogSuspend();
  ~ScopedWatchdogSuspend();
  ScopedWatchdogSuspend(const ScopedWatchdogSuspend&) = delete;
  ScopedWatchdogSuspend& operator=(const ScopedWatchdogSuspend&) = delete;
};

namespace internal {

// True while a ScopedWatchdogSuspend is live on this thread.
bool WatchdogSuspended();

// World-wide failure state shared by every group and the mailbox: the dead-member set and
// the abort flag. First Abort() wins and pins the canonical root-cause failure; later
// callers get the existing failure back. Clear() forgets both, bumps the epoch and re-arms
// the world (used by tests; the supervisor rebuilds instead).
class AbortState {
 public:
  explicit AbortState(std::chrono::milliseconds watchdog) : watchdog_(watchdog) {}

  std::chrono::milliseconds watchdog() const { return watchdog_; }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Records `failure` and trips the flag if not already aborted; returns the canonical
  // (first) failure either way.
  RankFailure Abort(RankFailure failure);
  // Valid once aborted(); returns the canonical failure.
  RankFailure failure() const;
  void Clear();

  // Records that `rank` stopped for good with `failure`. The first mark of a rank stands.
  void MarkDead(int rank, RankFailure failure);
  // The failure `rank` was marked dead with, or nullopt while it is alive.
  std::optional<RankFailure> DeathOf(int rank) const;

 private:
  std::chrono::milliseconds watchdog_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> any_dead_{false};  // fast path: no marks means one acquire load
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex mu_;
  RankFailure failure_;
  std::map<int, RankFailure> dead_;
};

// Rendezvous shared by all member ranks of one group. Implements a deposit/consume protocol:
// every member deposits a pointer, all members see the full slot vector, and the op retires
// only after every member signals completion — so no member may mutate its deposited buffer
// until the collective returns.
class GroupState {
 public:
  GroupState(std::vector<int> member_ranks, std::shared_ptr<AbortState> abort);

  int size() const { return static_cast<int>(members_.size()); }
  const std::vector<int>& members() const { return members_; }
  // Index of `global_rank` within the group, or -1.
  int IndexOf(int global_rank) const;

  // Deposits `p` at `index`; returns once all members have deposited. The returned vector is
  // ordered by group index and stays valid until Done() is called. Throws RankFailureError
  // if the world aborts, a member that has not deposited is dead, or the watchdog deadline
  // passes while waiting; on that path this member's deposit (if any) is retracted first,
  // so a poisoned op can never complete and read an unwound frame's buffer.
  const std::vector<const void*>& Exchange(int index, const void* p);
  // Marks this member finished with the slot vector; returns once all members are finished.
  // Deliberately NOT abort-sensitive: once every member has deposited, every member is alive
  // and runs straight-line code to Done() (no waits, no injection sites), so retirement is
  // guaranteed; an abortable wait here would let a member unwind while peers still read its
  // deposited buffer.
  void Done();

 private:
  // Aborts the world blaming `suspect_rank` and throws. Requires mu_ held.
  [[noreturn]] void FailWatchdog(std::chrono::steady_clock::time_point wait_start,
                                 const char* wait_site, int suspect_rank);
  // The death of the first member that has not deposited, if any is dead. Requires mu_.
  std::optional<RankFailure> DeadAbsentee() const;

  std::vector<int> members_;
  std::shared_ptr<AbortState> abort_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<const void*> slots_;
  int deposited_ = 0;
  int consumed_ = 0;
  bool consuming_ = false;
};

// Blocking FIFO channels for point-to-point messages, keyed by (src, dst). Recv is abortable
// with the same dead-member and watchdog semantics as GroupState (the suspect is the
// sender).
class Mailbox {
 public:
  explicit Mailbox(std::shared_ptr<AbortState> abort) : abort_(std::move(abort)) {}

  void Send(int src, int dst, Tensor t);
  Tensor Recv(int src, int dst);

 private:
  std::shared_ptr<AbortState> abort_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Tensor>> channels_;
};

}  // namespace internal

class ProcessGroup;

// The simulated cluster. Create one World per training run; build groups on the launcher
// thread (identical group layout for every rank), then hand per-rank ProcessGroup handles to
// rank threads.
class World {
 public:
  explicit World(int size, WorldOptions options = {});

  int size() const { return size_; }
  const WorldOptions& options() const { return options_; }

  // Creates the shared state for a group over the given global ranks (must be distinct,
  // in-range; order defines the group's canonical reduction order).
  std::shared_ptr<internal::GroupState> CreateGroup(const std::vector<int>& ranks);

  // Point-to-point (used by pipeline parallelism). Send copies; Recv blocks until a message
  // arrives, the world aborts, or the watchdog expires.
  void Send(int src_rank, int dst_rank, const Tensor& t);
  Tensor Recv(int src_rank, int dst_rank);

  // Fault handling. MarkDead records that `rank` stopped for good: every rank blocked on it
  // unwinds with `failure` within one wait quantum and is marked dead in turn. Abort is
  // first-caller-wins and returns the canonical failure; every blocked rank then unwinds
  // with RankFailureError within one wait quantum. An aborted world is poisoned until
  // ClearAbort() (tests) or, normally, destruction.
  void MarkDead(int rank, RankFailure failure) { abort_->MarkDead(rank, std::move(failure)); }
  RankFailure Abort(RankFailure failure) { return abort_->Abort(std::move(failure)); }
  bool aborted() const { return abort_->aborted(); }
  RankFailure failure() const { return abort_->failure(); }
  void ClearAbort() { abort_->Clear(); }
  uint64_t abort_epoch() const { return abort_->epoch(); }

 private:
  int size_;
  WorldOptions options_;
  std::shared_ptr<internal::AbortState> abort_;
  internal::Mailbox mailbox_;
};

// A rank's handle to one communication group. Value type; cheap to copy.
class ProcessGroup {
 public:
  ProcessGroup() = default;  // invalid handle
  ProcessGroup(std::shared_ptr<internal::GroupState> state, int global_rank);

  bool valid() const { return state_ != nullptr; }
  int size() const { return state_->size(); }
  // This rank's index within the group (0 .. size-1).
  int index() const { return index_; }
  const std::vector<int>& members() const { return state_->members(); }

  // In-place sum all-reduce over the group.
  void AllReduceSum(Tensor& t) const;
  // Elementwise max all-reduce (used for overflow checks in MPT simulation).
  void AllReduceMax(Tensor& t) const;
  double AllReduceSumScalar(double v) const;
  double AllReduceMaxScalar(double v) const;

  // Returns every member's tensor, ordered by group index. Shapes may differ across ranks
  // (ZeRO-3 ragged shards).
  std::vector<Tensor> AllGatherTensors(const Tensor& t) const;
  // Concatenates the gathered tensors along `dim` (all shapes must agree off-dim).
  Tensor AllGatherConcat(const Tensor& t, int dim) const;

  // Sums members' `full` tensors (all the same shape, numel divisible by size) and writes
  // this rank's contiguous 1/size slice of the flattened sum into `shard`.
  void ReduceScatterSum(const Tensor& full, Tensor& shard) const;

  // Copies root's tensor into every member's `t` (shapes must match).
  void Broadcast(Tensor& t, int root_index) const;

  void Barrier() const;

 private:
  std::shared_ptr<internal::GroupState> state_;
  int index_ = -1;
};

// Runs `body(rank)` on world_size threads and joins them. UCP_CHECK failures abort the whole
// process, matching how a fatal rank error kills a real job; so does an unhandled rank
// failure (use RunSpmdFallible when failures are expected).
void RunSpmd(int world_size, const std::function<void(int)>& body);

// Like RunSpmd, but catches RankFailureError at each rank thread's top level instead of
// aborting. Always joins all world_size threads; element r of the result holds rank r's
// failure, or nullopt if the rank ran to completion.
std::vector<std::optional<RankFailure>> RunSpmdFallible(
    int world_size, const std::function<void(int)>& body);

}  // namespace ucp

#endif  // UCP_SRC_COMM_COMM_H_
