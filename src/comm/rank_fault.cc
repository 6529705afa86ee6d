#include "src/comm/rank_fault.h"

#include <atomic>
#include <mutex>
#include <sstream>

namespace ucp {
namespace {

struct ArmedRankFault {
  RankFaultPlan plan;
  int site_hits = 0;   // matching (rank, iteration, site) hits so far
  bool fired = false;
};

std::mutex g_mu;
ArmedRankFault g_fault;                   // guarded by g_mu
std::atomic<bool> g_armed{false};         // fast path: disarmed means one relaxed load
std::atomic<bool> g_fired{false};

thread_local FaultContext tl_context;

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kIterationStart: return "iteration-start";
    case FaultSite::kAllReduce: return "all-reduce";
    case FaultSite::kAllGather: return "all-gather";
    case FaultSite::kReduceScatter: return "reduce-scatter";
    case FaultSite::kBroadcast: return "broadcast";
    case FaultSite::kBarrier: return "barrier";
    case FaultSite::kP2PSend: return "p2p-send";
    case FaultSite::kP2PRecv: return "p2p-recv";
    case FaultSite::kBeforeSave: return "before-save";
    case FaultSite::kAsyncFlush: return "async-flush";
  }
  return "unknown";
}

std::string RankFailure::ToString() const {
  std::ostringstream os;
  os << (kind == Kind::kInjected ? "injected" : kind == Kind::kHang ? "hang" : "watchdog")
     << " failure: rank " << rank << " at iteration " << iteration
     << " in " << site;
  if (blocked_seconds > 0.0) os << " (blocked " << blocked_seconds << "s)";
  if (!detail.empty()) os << "; " << detail;
  return os.str();
}

RankFailureError::RankFailureError(RankFailure failure)
    : failure_(std::move(failure)), what_(failure_.ToString()) {}

void ArmRankFault(const RankFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_fault = ArmedRankFault{plan, 0, false};
  g_fired.store(false, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void DisarmRankFaults() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.store(false, std::memory_order_release);
  g_fault = ArmedRankFault{};
  g_fired.store(false, std::memory_order_relaxed);
}

bool RankFaultFired() { return g_fired.load(std::memory_order_acquire); }

void SetFaultContext(int rank, int64_t iteration) {
  tl_context.rank = rank;
  tl_context.iteration = iteration;
}

FaultContext CurrentFaultContext() { return tl_context; }

void CheckRankFault(FaultSite site) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const FaultContext ctx = tl_context;
  bool fire = false;
  bool hang = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!g_armed.load(std::memory_order_relaxed) || g_fault.fired) return;
    if (g_fault.plan.rank != ctx.rank || g_fault.plan.iteration != ctx.iteration ||
        g_fault.plan.site != site) {
      return;
    }
    if (++g_fault.site_hits < g_fault.plan.nth) return;
    g_fault.fired = true;
    fire = true;
    hang = g_fault.plan.kind == RankFaultKind::kHang;
  }
  if (fire) {
    g_fired.store(true, std::memory_order_release);
    RankFailure failure;
    failure.kind = hang ? RankFailure::Kind::kHang : RankFailure::Kind::kInjected;
    failure.rank = ctx.rank;
    failure.iteration = ctx.iteration;
    failure.site = FaultSiteName(site);
    failure.detail =
        hang ? "rank hung by armed RankFaultPlan" : "rank killed by armed RankFaultPlan";
    throw RankFailureError(std::move(failure));
  }
}

}  // namespace ucp
