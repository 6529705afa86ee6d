#include "src/comm/comm.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {
namespace internal {
namespace {

// Poll quantum for abortable waits. Waiters re-check their predicate, the abort flag, and
// the watchdog deadline at least this often, so a world abort unwinds every blocked rank
// within ~one quantum without any cross-group notification plumbing.
constexpr std::chrono::milliseconds kWaitQuantum{2};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

thread_local int tl_watchdog_suspend_depth = 0;

// A wait that needs a dead member unwinds with that member's failure, and `self_rank` is
// dead from here on too, so its own peers stop at their first wait that needs it.
[[noreturn]] void ThrowDeath(AbortState& state, int self_rank, RankFailure failure,
                             std::chrono::steady_clock::time_point wait_start) {
  failure.blocked_seconds = SecondsSince(wait_start);
  state.MarkDead(self_rank, failure);
  throw RankFailureError(std::move(failure));
}

}  // namespace

bool WatchdogSuspended() { return tl_watchdog_suspend_depth > 0; }

RankFailure AbortState::Abort(RankFailure failure) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!aborted_.load(std::memory_order_relaxed)) {
    failure_ = std::move(failure);
    aborted_.store(true, std::memory_order_release);
  }
  return failure_;
}

RankFailure AbortState::failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_;
}

void AbortState::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_.store(false, std::memory_order_release);
  failure_ = RankFailure{};
  dead_.clear();
  any_dead_.store(false, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void AbortState::MarkDead(int rank, RankFailure failure) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_.emplace(rank, std::move(failure));
  any_dead_.store(true, std::memory_order_release);
}

std::optional<RankFailure> AbortState::DeathOf(int rank) const {
  if (!any_dead_.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dead_.find(rank);
  if (it == dead_.end()) {
    return std::nullopt;
  }
  return it->second;
}

GroupState::GroupState(std::vector<int> member_ranks, std::shared_ptr<AbortState> abort)
    : members_(std::move(member_ranks)), abort_(std::move(abort)) {
  UCP_CHECK(!members_.empty());
  UCP_CHECK(abort_ != nullptr);
  slots_.resize(members_.size(), nullptr);
}

int GroupState::IndexOf(int global_rank) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == global_rank) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void GroupState::FailWatchdog(std::chrono::steady_clock::time_point wait_start,
                              const char* wait_site, int suspect_rank) {
  const FaultContext ctx = CurrentFaultContext();
  RankFailure failure;
  failure.kind = RankFailure::Kind::kWatchdog;
  failure.rank = suspect_rank;
  failure.iteration = ctx.iteration;
  failure.site = wait_site;
  failure.blocked_seconds = SecondsSince(wait_start);
  std::ostringstream detail;
  detail << "rank " << ctx.rank << " watchdog expired after "
         << abort_->watchdog().count() << "ms in " << wait_site;
  failure.detail = detail.str();
  // First caller wins: if another rank already aborted the world, propagate its (earlier)
  // root cause instead of ours.
  throw RankFailureError(abort_->Abort(std::move(failure)));
}

std::optional<RankFailure> GroupState::DeadAbsentee() const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == nullptr) {
      if (std::optional<RankFailure> death = abort_->DeathOf(members_[i])) {
        return death;
      }
    }
  }
  return std::nullopt;
}

const std::vector<const void*>& GroupState::Exchange(int index, const void* p) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto deadline = wait_start + abort_->watchdog();

  // Wait for the previous collective on this group to fully retire. The predicate is checked
  // before the abort flag: if the op retired we are free to proceed even in an aborted world
  // (the deposit-time check below still refuses to start a new op).
  while (consuming_) {
    if (abort_->aborted()) throw RankFailureError(abort_->failure());
    if (!WatchdogSuspended() && std::chrono::steady_clock::now() >= deadline) {
      // Retirement is normally guaranteed (see Done()); reaching this means the world is
      // genuinely wedged. No specific peer to blame.
      FailWatchdog(wait_start, "collective-entry", /*suspect_rank=*/-1);
    }
    cv_.wait_for(lock, kWaitQuantum);
  }
  UCP_CHECK_GE(index, 0);
  UCP_CHECK_LT(index, size());
  UCP_CHECK(slots_[static_cast<size_t>(index)] == nullptr)
      << "rank deposited twice into one collective";
  // Abort check immediately before depositing, in the same critical section: a member of an
  // aborted world must never deposit, or a lagging peer could complete the op and read this
  // frame's buffer after we unwound.
  if (abort_->aborted()) throw RankFailureError(abort_->failure());
  slots_[static_cast<size_t>(index)] = p;
  ++deposited_;
  if (deposited_ == size()) {
    consuming_ = true;
    consumed_ = 0;
    cv_.notify_all();
  } else {
    // Predicate before abort flag: once the last member flips consuming_, the op WILL be
    // read by peers, so we must stay and complete it normally; only an op that can still be
    // cancelled (consuming_ false, our retraction below) may unwind.
    while (!consuming_) {
      const bool aborted = abort_->aborted();
      std::optional<RankFailure> death = DeadAbsentee();
      const bool expired =
          !WatchdogSuspended() && std::chrono::steady_clock::now() >= deadline;
      if (aborted || death.has_value() || expired) {
        // Retract our deposit so the op can never complete and read our unwound frame. Any
        // member that would have completed it instead observes the abort flag at its own
        // deposit-time check, or this rank's death mark in its wait, and unwinds too.
        slots_[static_cast<size_t>(index)] = nullptr;
        --deposited_;
        if (aborted) throw RankFailureError(abort_->failure());
        if (death.has_value()) {
          ThrowDeath(*abort_, members_[static_cast<size_t>(index)], std::move(*death),
                     wait_start);
        }
        int suspect = -1;
        for (size_t i = 0; i < slots_.size(); ++i) {
          if (slots_[i] == nullptr) {
            suspect = members_[i];
            break;
          }
        }
        FailWatchdog(wait_start, "collective-deposit", suspect);
      }
      cv_.wait_for(lock, kWaitQuantum);
    }
  }
  return slots_;
}

void GroupState::Done() {
  std::unique_lock<std::mutex> lock(mu_);
  UCP_CHECK(consuming_) << "Done() without Exchange()";
  ++consumed_;
  if (consumed_ == size()) {
    std::fill(slots_.begin(), slots_.end(), nullptr);
    deposited_ = 0;
    consuming_ = false;
    cv_.notify_all();
  } else {
    // Block until the op retires so no member can race ahead and mutate its deposited
    // buffer while peers are still reading it. Deliberately not abort-sensitive: every
    // member deposited, so every member is alive on the straight-line path to Done() and
    // retirement is guaranteed (see header comment).
    cv_.wait(lock, [this] { return !consuming_; });
  }
}

void Mailbox::Send(int src, int dst, Tensor t) {
  // Fail fast instead of queueing into a poisoned world.
  if (abort_->aborted()) throw RankFailureError(abort_->failure());
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_[{src, dst}].push_back(std::move(t));
  }
  cv_.notify_all();
}

Tensor Mailbox::Recv(int src, int dst) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto deadline = wait_start + abort_->watchdog();
  auto key = std::make_pair(src, dst);
  auto has_message = [this, &key] {
    auto it = channels_.find(key);
    return it != channels_.end() && !it->second.empty();
  };
  // Predicate before abort flag: an already-delivered message is consumed normally.
  while (!has_message()) {
    if (abort_->aborted()) throw RankFailureError(abort_->failure());
    if (std::optional<RankFailure> death = abort_->DeathOf(src)) {
      ThrowDeath(*abort_, dst, std::move(*death), wait_start);
    }
    if (!WatchdogSuspended() && std::chrono::steady_clock::now() >= deadline) {
      const FaultContext ctx = CurrentFaultContext();
      RankFailure failure;
      failure.kind = RankFailure::Kind::kWatchdog;
      failure.rank = src;  // the peer that never sent
      failure.iteration = ctx.iteration;
      failure.site = "p2p-recv";
      failure.blocked_seconds = SecondsSince(wait_start);
      std::ostringstream detail;
      detail << "rank " << dst << " watchdog expired waiting for message from rank " << src;
      failure.detail = detail.str();
      throw RankFailureError(abort_->Abort(std::move(failure)));
    }
    cv_.wait_for(lock, kWaitQuantum);
  }
  Tensor t = std::move(channels_[key].front());
  channels_[key].pop_front();
  return t;
}

}  // namespace internal

namespace {

// Per-op comm metrics, resolved once per callsite (`static CollectiveMetrics m("allreduce")`).
// `wait` records time blocked in Exchange/Recv — the part attributable to peer skew — as
// opposed to the local reduce/copy work, which the enclosing span captures as the remainder.
struct CollectiveMetrics {
  obs::Counter& calls;
  obs::Counter& bytes;
  obs::Histogram& wait;

  explicit CollectiveMetrics(const std::string& op)
      : calls(obs::MetricsRegistry::Global().GetCounter("comm." + op + ".calls")),
        bytes(obs::MetricsRegistry::Global().GetCounter("comm." + op + ".bytes")),
        wait(obs::MetricsRegistry::Global().GetHistogram("comm." + op + ".wait_seconds")) {}

  void Record(uint64_t nbytes, double wait_seconds) {
    calls.Add(1);
    bytes.Add(nbytes);
    wait.Observe(wait_seconds);
  }
};

}  // namespace

ScopedWatchdogSuspend::ScopedWatchdogSuspend() { ++internal::tl_watchdog_suspend_depth; }
ScopedWatchdogSuspend::~ScopedWatchdogSuspend() { --internal::tl_watchdog_suspend_depth; }

World::World(int size, WorldOptions options)
    : size_(size),
      options_(options),
      abort_(std::make_shared<internal::AbortState>(options.watchdog_timeout)),
      mailbox_(abort_) {
  UCP_CHECK_GT(size, 0);
  UCP_CHECK_GT(options_.watchdog_timeout.count(), 0);
}

std::shared_ptr<internal::GroupState> World::CreateGroup(const std::vector<int>& ranks) {
  UCP_CHECK(!ranks.empty());
  for (int r : ranks) {
    UCP_CHECK_GE(r, 0);
    UCP_CHECK_LT(r, size_);
  }
  return std::make_shared<internal::GroupState>(ranks, abort_);
}

void World::Send(int src_rank, int dst_rank, const Tensor& t) {
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.p2p.send");
  UCP_TRACE_SPAN_ARG_I(span, "dst", dst_rank);
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kP2PSend);
  mailbox_.Send(src_rank, dst_rank, t.Clone());
  static CollectiveMetrics m("p2p.send");
  m.Record(nbytes, 0.0);
}

Tensor World::Recv(int src_rank, int dst_rank) {
  UCP_TRACE_NAMED_SPAN(span, "comm.p2p.recv");
  UCP_TRACE_SPAN_ARG_I(span, "src", src_rank);
  CheckRankFault(FaultSite::kP2PRecv);
  const auto wait_start = std::chrono::steady_clock::now();
  Tensor t = mailbox_.Recv(src_rank, dst_rank);
  const double wait_s = internal::SecondsSince(wait_start);
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  static CollectiveMetrics m("p2p.recv");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
  return t;
}

ProcessGroup::ProcessGroup(std::shared_ptr<internal::GroupState> state, int global_rank)
    : state_(std::move(state)) {
  index_ = state_->IndexOf(global_rank);
  UCP_CHECK_GE(index_, 0) << "rank " << global_rank << " is not a member of this group";
}

void ProcessGroup::AllReduceSum(Tensor& t) const {
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.allreduce");
  UCP_TRACE_SPAN_ARG_S(span, "op", "sum");
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kAllReduce);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &t);
  const double wait_s = internal::SecondsSince(wait_start);
  // Accumulate in group order into a temporary; writing into `t` before Done() would corrupt
  // peers that still read our slot.
  Tensor result = Tensor::Zeros(t.shape());
  for (const void* slot : slots) {
    const auto* contrib = static_cast<const Tensor*>(slot);
    UCP_CHECK_EQ(contrib->numel(), t.numel()) << "AllReduceSum shape mismatch";
    result.Add_(*contrib);
  }
  state_->Done();
  t.CopyFrom(result);
  static CollectiveMetrics m("allreduce");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
}

void ProcessGroup::AllReduceMax(Tensor& t) const {
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.allreduce");
  UCP_TRACE_SPAN_ARG_S(span, "op", "max");
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kAllReduce);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &t);
  const double wait_s = internal::SecondsSince(wait_start);
  Tensor result = Tensor::Full(t.shape(), -std::numeric_limits<float>::infinity());
  float* out = result.data();
  for (const void* slot : slots) {
    const auto* contrib = static_cast<const Tensor*>(slot);
    UCP_CHECK_EQ(contrib->numel(), t.numel()) << "AllReduceMax shape mismatch";
    const float* in = contrib->data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      out[i] = std::max(out[i], in[i]);
    }
  }
  state_->Done();
  t.CopyFrom(result);
  static CollectiveMetrics m("allreduce");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
}

double ProcessGroup::AllReduceSumScalar(double v) const {
  UCP_TRACE_NAMED_SPAN(span, "comm.allreduce_scalar");
  CheckRankFault(FaultSite::kAllReduce);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &v);
  const double wait_s = internal::SecondsSince(wait_start);
  double sum = 0.0;
  for (const void* slot : slots) {
    sum += *static_cast<const double*>(slot);
  }
  state_->Done();
  static CollectiveMetrics m("allreduce_scalar");
  m.Record(sizeof(double), wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
  return sum;
}

double ProcessGroup::AllReduceMaxScalar(double v) const {
  UCP_TRACE_NAMED_SPAN(span, "comm.allreduce_scalar");
  CheckRankFault(FaultSite::kAllReduce);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &v);
  const double wait_s = internal::SecondsSince(wait_start);
  double max_v = -std::numeric_limits<double>::infinity();
  for (const void* slot : slots) {
    max_v = std::max(max_v, *static_cast<const double*>(slot));
  }
  state_->Done();
  static CollectiveMetrics m("allreduce_scalar");
  m.Record(sizeof(double), wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
  return max_v;
}

std::vector<Tensor> ProcessGroup::AllGatherTensors(const Tensor& t) const {
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.allgather");
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kAllGather);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &t);
  const double wait_s = internal::SecondsSince(wait_start);
  std::vector<Tensor> out;
  out.reserve(slots.size());
  for (const void* slot : slots) {
    out.push_back(static_cast<const Tensor*>(slot)->Clone());
  }
  state_->Done();
  static CollectiveMetrics m("allgather");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
  return out;
}

Tensor ProcessGroup::AllGatherConcat(const Tensor& t, int dim) const {
  std::vector<Tensor> gathered = AllGatherTensors(t);
  return Tensor::Concat(gathered, dim);
}

void ProcessGroup::ReduceScatterSum(const Tensor& full, Tensor& shard) const {
  const uint64_t nbytes = static_cast<uint64_t>(full.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.reduce_scatter");
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kReduceScatter);
  UCP_CHECK_EQ(full.numel() % size(), 0) << "ReduceScatterSum: numel not divisible by group";
  int64_t shard_numel = full.numel() / size();
  UCP_CHECK_EQ(shard.numel(), shard_numel) << "ReduceScatterSum: bad shard size";

  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &full);
  const double wait_s = internal::SecondsSince(wait_start);
  Tensor result = Tensor::Zeros({shard_numel});
  float* out = result.data();
  int64_t base = static_cast<int64_t>(index_) * shard_numel;
  for (const void* slot : slots) {
    const auto* contrib = static_cast<const Tensor*>(slot);
    UCP_CHECK_EQ(contrib->numel(), full.numel()) << "ReduceScatterSum shape mismatch";
    const float* in = contrib->data() + base;
    for (int64_t i = 0; i < shard_numel; ++i) {
      out[i] += in[i];
    }
  }
  state_->Done();
  shard.CopyFrom(result);
  static CollectiveMetrics m("reduce_scatter");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
}

void ProcessGroup::Broadcast(Tensor& t, int root_index) const {
  const uint64_t nbytes = static_cast<uint64_t>(t.numel()) * sizeof(float);
  UCP_TRACE_NAMED_SPAN(span, "comm.broadcast");
  UCP_TRACE_SPAN_ARG_I(span, "bytes", static_cast<int64_t>(nbytes));
  CheckRankFault(FaultSite::kBroadcast);
  UCP_CHECK_GE(root_index, 0);
  UCP_CHECK_LT(root_index, size());
  const auto wait_start = std::chrono::steady_clock::now();
  const auto& slots = state_->Exchange(index_, &t);
  const double wait_s = internal::SecondsSince(wait_start);
  const auto* root = static_cast<const Tensor*>(slots[static_cast<size_t>(root_index)]);
  UCP_CHECK_EQ(root->numel(), t.numel()) << "Broadcast shape mismatch";
  Tensor copy = root->Clone();
  state_->Done();
  if (index_ != root_index) {
    t.CopyFrom(copy);
  }
  static CollectiveMetrics m("broadcast");
  m.Record(nbytes, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
}

void ProcessGroup::Barrier() const {
  UCP_TRACE_NAMED_SPAN(span, "comm.barrier");
  CheckRankFault(FaultSite::kBarrier);
  const auto wait_start = std::chrono::steady_clock::now();
  int token = 0;
  state_->Exchange(index_, &token);
  const double wait_s = internal::SecondsSince(wait_start);
  state_->Done();
  static CollectiveMetrics m("barrier");
  m.Record(0, wait_s);
  UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait_s * 1e3);
}

void RunSpmd(int world_size, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&body, r] {
      SetFaultContext(r, -1);
      obs::SetThreadRank(r);
      try {
        body(r);
      } catch (const RankFailureError& e) {
        UCP_CHECK(false) << "unhandled rank failure in RunSpmd (use RunSpmdFallible): "
                         << e.what();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::vector<std::optional<RankFailure>> RunSpmdFallible(
    int world_size, const std::function<void(int)>& body) {
  std::vector<std::optional<RankFailure>> failures(static_cast<size_t>(world_size));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&body, &failures, r] {
      SetFaultContext(r, -1);
      obs::SetThreadRank(r);
      try {
        body(r);
      } catch (const RankFailureError& e) {
        failures[static_cast<size_t>(r)] = e.failure();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return failures;
}

}  // namespace ucp
