// train_async: a 2-rank DP2.ZeRO-1 GPT job trains without pause and calls
// AsyncCheckpointEngine::SaveAsync (default options) every kSaveEvery steps into a
// LocalStore. The path users run all the time: it shows whether a checkpoint change frees
// CPU for training or stalls it. Nothing goes over the wire and nothing is converted.
//
//   primary   = save_commit: SaveAsync entry (first rank) -> WaitForIteration returns,
//               the window in which the newest checkpoint is not yet durable; its CPU twin
//               is the flusher thread's CPU for that save, per MiB.
//   secondary = save_stall: the longest rank's time inside SaveAsync; its CPU twin is the
//               rank threads' CPU inside SaveAsync, per MiB.

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "perfbench/timing_store.h"
#include "perfbench/workloads.h"
#include "src/ckpt/async/engine.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ucp {
namespace perfbench {
namespace {

constexpr int kSaveEvery = 8;
constexpr int kWarmupSaves = 2;
constexpr int kSetups = 3;

ModelConfig JobModel() {
  ModelConfig m = Gpt3Scaled();
  m.num_layers = 6;
  m.hidden = 128;
  m.ffn_hidden = 512;
  return m;
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One save as the benchmark sees it from outside the engine.
struct SaveRecord {
  double first_enter = std::numeric_limits<double>::infinity();
  double stall_s = 0.0;      // longest rank's SaveAsync
  double stall_cpu_s = 0.0;  // summed over ranks
  int arrived = 0;
  bool flush_seen = false;
  clockid_t flush_clock{};
  double flush_cpu_start = 0.0;
};

// What the waiter thread measured for one committed save.
struct SaveOutcome {
  int64_t iteration = 0;
  double commit_ms = 0.0;
  double stall_ms = 0.0;
  double stall_cpu_ms = 0.0;
  double flush_cpu_ms = 0.0;
};

// The training job: one TrainingRun, one engine, and a waiter thread that blocks on each
// save's WaitForIteration so commit latency is measured without stalling the ranks.
class AsyncJob {
 public:
  AsyncJob(const TrainerConfig& cfg, std::string dir, std::shared_ptr<Store> store)
      : dir_(std::move(dir)), run_(cfg), world_size_(cfg.strategy.world_size()) {
    AsyncCheckpointOptions options;
    options.pre_flush_hook = [this](int64_t iteration) {
      clockid_t clock{};
      pthread_getcpuclockid(pthread_self(), &clock);
      std::lock_guard<std::mutex> lock(mu_);
      SaveRecord& rec = records_[iteration];
      rec.flush_seen = true;
      rec.flush_clock = clock;
      rec.flush_cpu_start = ClockSeconds(clock);
    };
    store_ = std::move(store);
    engine_ = std::make_unique<AsyncCheckpointEngine>(store_, world_size_, options);
    waiter_ = std::thread([this] { WaiterLoop(); });
  }

  ~AsyncJob() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    waiter_.join();
  }

  AsyncJob(const AsyncJob&) = delete;
  AsyncJob& operator=(const AsyncJob&) = delete;

  // Trains [first, last]; saves after every iteration divisible by kSaveEvery when `save`.
  // Rank 0 stamps the wall clock after each step into `marks` when given.
  std::vector<double> Train(int64_t first, int64_t last, bool save,
                            std::vector<double>* marks = nullptr) {
    return run_.Train(first, last, [&](RankTrainer& t, int64_t it) {
      if (marks != nullptr && t.rank() == 0) {
        marks->push_back(WallSeconds());
      }
      if (save && it % kSaveEvery == 0) {
        SaveOne(t, it);
      }
    });
  }

  // Waits for every save handed to the waiter to be measured.
  Status Drain() {
    Status s = engine_->WaitAll();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return queue_.empty() && !waiter_busy_; });
    return s;
  }

  std::vector<SaveOutcome> TakeOutcomes() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(outcomes_, {});
  }
  std::vector<std::string> TakeErrors() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(errors_, {});
  }

  AsyncSaveStats stats() const { return engine_->stats(); }
  int64_t saves_issued() const { return saves_issued_.load(); }

 private:
  void SaveOne(RankTrainer& t, int64_t it) {
    const double enter = WallSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      SaveRecord& rec = records_[it];
      rec.first_enter = std::min(rec.first_enter, enter);
    }
    const double c0 = ThreadCpuSeconds();
    Status s = engine_->SaveAsync(t, it);
    const double c1 = ThreadCpuSeconds();
    const double stall = WallSeconds() - enter;
    std::lock_guard<std::mutex> lock(mu_);
    if (!s.ok()) {
      errors_.push_back("SaveAsync(" + std::to_string(it) + "): " + s.ToString());
    }
    SaveRecord& rec = records_[it];
    rec.stall_s = std::max(rec.stall_s, stall);
    rec.stall_cpu_s += c1 - c0;
    if (++rec.arrived == world_size_) {
      saves_issued_ += 1;
      queue_.push_back(it);
      cv_.notify_all();
    }
  }

  void WaiterLoop() {
    LocalStore direct(dir_);
    int64_t last_latest = 0;
    std::deque<int64_t> committed;
    for (;;) {
      int64_t it = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;
        }
        it = queue_.front();
        queue_.pop_front();
        waiter_busy_ = true;
      }
      Status s = engine_->WaitForIteration(it);
      const double done = WallSeconds();
      std::vector<std::string> errors;
      SaveOutcome outcome;
      {
        std::lock_guard<std::mutex> lock(mu_);
        SaveRecord rec = records_[it];
        records_.erase(it);
        outcome.iteration = it;
        outcome.commit_ms = (done - rec.first_enter) * 1e3;
        outcome.stall_ms = rec.stall_s * 1e3;
        outcome.stall_cpu_ms = rec.stall_cpu_s * 1e3;
        if (rec.flush_seen) {
          outcome.flush_cpu_ms = (ClockSeconds(rec.flush_clock) - rec.flush_cpu_start) * 1e3;
        }
      }
      if (!s.ok()) {
        errors.push_back("save " + std::to_string(it) + " did not commit: " + s.ToString());
      } else {
        // `latest` must name this save or a newer one, and never move backwards.
        Result<std::string> latest = ReadLatestTag(direct);
        std::string job;
        int64_t latest_it = 0;
        if (!latest.ok() || !ParseTagName(*latest, &job, &latest_it) || latest_it < it ||
            latest_it < last_latest) {
          errors.push_back("latest did not advance to save " + std::to_string(it));
        }
        last_latest = std::max(last_latest, latest_it);
        // Keep the two newest checkpoints on disk; the run's footprint stays flat.
        committed.push_back(it);
        while (committed.size() > 2) {
          Status d = direct.DeleteTag(TagForIteration(committed.front()));
          if (!d.ok()) {
            errors.push_back("DeleteTag: " + d.ToString());
          }
          committed.pop_front();
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      outcomes_.push_back(outcome);
      errors_.insert(errors_.end(), errors.begin(), errors.end());
      waiter_busy_ = false;
      cv_.notify_all();
    }
  }

  const std::string dir_;
  TrainingRun run_;
  const int world_size_;
  std::shared_ptr<Store> store_;
  std::unique_ptr<AsyncCheckpointEngine> engine_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int64_t, SaveRecord> records_;
  std::deque<int64_t> queue_;
  bool waiter_busy_ = false;
  bool stop_ = false;
  std::vector<SaveOutcome> outcomes_;
  std::vector<std::string> errors_;
  std::atomic<int64_t> saves_issued_{0};
  std::thread waiter_;  // last: started after every member it touches exists
};

}  // namespace

RunResult RunTrainAsync(const RunOptions& options) {
  RunResult result;
  ZeroPerLayer(&result);
  const TrainerConfig cfg =
      SeededConfig(JobModel(), ParallelConfig{1, 1, 2, 1, 1, 1}, options.seed);
  const std::string dir = options.run_dir + "/train_async";
  std::shared_ptr<StoreTimings> timings = std::make_shared<StoreTimings>();
  auto make_store = [&]() -> std::shared_ptr<Store> {
    auto local = std::make_shared<LocalStore>(dir);
    if (!options.trace) {
      return local;
    }
    return std::make_shared<TimingStore>(local, timings);
  };

  // ---- Set-up, several times: world built, engine up, two saves committed. -------------
  constexpr int64_t kWarmupIters = kSaveEvery * kWarmupSaves;
  std::unique_ptr<AsyncJob> job;
  std::vector<double> setup_s, setup_cpu;
  double warm_loss = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    job.reset();
    FreshDir(dir);
    const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
    job = std::make_unique<AsyncJob>(cfg, dir, make_store());
    std::vector<double> losses = job->Train(1, kWarmupIters, /*save=*/true);
    Status s = job->Drain();
    setup_s.push_back(WallSeconds() - t0);
    setup_cpu.push_back(ProcessCpuSeconds() - c0);
    result.attempted += 1;
    if (!s.ok()) {
      result.Fail("warm-up saves: " + s.ToString());
    }
    if (i > 0 && std::memcmp(&losses.back(), &warm_loss, sizeof(double)) != 0) {
      result.Fail("warm-up loss differs between identical set-ups");
    }
    warm_loss = losses.back();
    job->TakeOutcomes();
  }
  for (const std::string& e : job->TakeErrors()) {
    result.Fail(e);
  }
  result.Line(Fmt("loss at step %lld: %.17g", static_cast<long long>(kWarmupIters), warm_loss));
  const uint64_t bytes_per_save = TreeBytes(dir + "/" + TagForIteration(kWarmupIters));
  const double mib_per_save = static_cast<double>(bytes_per_save) / (1024.0 * 1024.0);
  result.Line(Fmt("checkpoint: %.2f MiB per save, save every %d steps", mib_per_save,
                  kSaveEvery));
  int64_t next = kWarmupIters + 1;

  // ---- Traced runs only: a save-free window for the runtime and comm layers. ----------
  if (options.trace) {
    std::vector<double> marks;
    MetricsWindow window;
    const double c0 = ProcessCpuSeconds();
    const int64_t n = 2 * kSaveEvery;
    marks.push_back(WallSeconds());
    job->Train(next, next + n - 1, /*save=*/false, &marks);
    const double cpu = ProcessCpuSeconds() - c0;
    next += n;
    std::vector<double> iter_ms;
    for (size_t i = 1; i < marks.size(); ++i) {
      iter_ms.push_back((marks[i] - marks[i - 1]) * 1e3);
    }
    SetLayer(&result, "runtime.iter_ms_p50", Quantile(iter_ms, 0.5));
    SetLayer(&result, "runtime.iter_cpu_ms", cpu * 1e3 / static_cast<double>(n));
    SetLayer(&result, "comm.calls_per_it",
             window.CounterSum("comm.", ".calls") / static_cast<double>(n));
    SetLayer(&result, "comm.bytes_per_it",
             window.CounterSum("comm.", ".bytes") / static_cast<double>(n));
    SetLayer(&result, "comm.wait_ms_per_it",
             window.HistSumAll("comm.", ".wait_seconds") * 1e3 / static_cast<double>(n));
    obs::SetTraceRingCapacity(1 << 16);
    obs::ResetTrace();
    timings->Reset();
  }

  // ---- Measured loop: segments of kSaveEvery steps, each ending in a save. -------------
  const AsyncSaveStats stats0 = job->stats();
  const int64_t issued0 = job->saves_issued();
  MetricsWindow window;
  SpanLedger ledger;
  std::set<int64_t> traced_saves;
  double traced_cpu = 0.0, untraced_cpu = 0.0;
  int64_t traced_iters = 0, untraced_iters = 0;
  const HostCpu host0 = ReadHostCpu();
  const double t_start = WallSeconds();
  const double c_start = ProcessCpuSeconds();
  int64_t iters = 0;
  // A traced run ends on a traced segment, whose trace is the one exported.
  for (int segment = 0;
       WallSeconds() - t_start < options.seconds || (options.trace && segment % 2 == 1);
       ++segment) {
    const bool traced = options.trace && segment % 2 == 1;
    obs::SetTraceEnabled(traced);
    const double c0 = ProcessCpuSeconds();
    job->Train(next, next + kSaveEvery - 1, /*save=*/true);
    const double cpu = ProcessCpuSeconds() - c0;
    (traced ? traced_cpu : untraced_cpu) += cpu;
    (traced ? traced_iters : untraced_iters) += kSaveEvery;
    if (traced) {
      traced_saves.insert(next + kSaveEvery - 1);
    }
    next += kSaveEvery;
    iters += kSaveEvery;
    if (options.trace) {
      obs::SetTraceEnabled(false);
      if (traced && WallSeconds() - t_start >= options.seconds) {
        ExportTrace(options, "train_async", &result);
      }
      ledger.Harvest();
    }
  }
  const double wall = WallSeconds() - t_start;
  const double cpu = ProcessCpuSeconds() - c_start;
  const HostCpu host1 = ReadHostCpu();
  Status drained = job->Drain();
  if (!drained.ok()) {
    result.Fail("WaitAll: " + drained.ToString());
  }
  if (options.trace) {
    ledger.Harvest();
  }

  // ---- Correctness: every save committed, latest advanced, native reload is bit-exact. -
  const std::vector<SaveOutcome> outcomes = job->TakeOutcomes();
  for (const std::string& e : job->TakeErrors()) {
    result.Fail(e);
  }
  const AsyncSaveStats stats1 = job->stats();
  const int64_t saves = job->saves_issued() - issued0;
  const int64_t commits = stats1.commits - stats0.commits;
  result.attempted += saves;
  if (commits != saves || static_cast<int64_t>(outcomes.size()) != saves) {
    result.Fail(Fmt("%lld saves issued but %lld committed", static_cast<long long>(saves),
                    static_cast<long long>(commits)));
  }
  if (stats1.failures != stats0.failures || stats1.drops != stats0.drops) {
    result.Fail("async saves failed or were dropped");
  }
  const int64_t last_saved = next - 1;
  {
    Result<std::string> latest = ReadLatestTag(dir);
    if (!latest.ok() || *latest != TagForIteration(last_saved)) {
      result.Fail("latest does not name the last save");
    }
    const std::vector<double> live = job->Train(next, next, /*save=*/false);
    TrainingRun fresh(cfg);
    Status load = OkStatus();
    std::mutex load_mu;
    fresh.Run([&](RankTrainer& t) {
      Status s = LoadDistributedCheckpoint(dir, TagForIteration(last_saved), t);
      std::lock_guard<std::mutex> lock(load_mu);
      if (!s.ok()) {
        load = s;
      }
    });
    result.attempted += 1;
    if (!load.ok()) {
      result.Fail("native reload of the last save: " + load.ToString());
    } else {
      const std::vector<double> reloaded = fresh.Train(next, next);
      if (std::memcmp(&live[0], &reloaded[0], sizeof(double)) != 0) {
        result.Fail(Fmt("reloaded next-step loss %.17g != live %.17g", reloaded[0], live[0]));
      }
    }
  }

  // ---- End-to-end metrics. --------------------------------------------------------------
  std::vector<double> commit_ms, stall_ms, flush_cpu, stall_cpu;
  for (const SaveOutcome& o : outcomes) {
    if (traced_saves.count(o.iteration) != 0) {
      continue;
    }
    commit_ms.push_back(o.commit_ms);
    stall_ms.push_back(o.stall_ms);
    flush_cpu.push_back(o.flush_cpu_ms / mib_per_save);
    stall_cpu.push_back(o.stall_cpu_ms / mib_per_save);
  }
  SetWall(&result, "train_it_s", "train_it_s", static_cast<double>(iters) / wall, "1/s");
  SetE2e(&result, "train_cpu_ms_per_it", "train_cpu_ms_per_it",
         cpu * 1e3 / static_cast<double>(iters), "ms");
  SetWallLatency(&result, "primary_ms_p50", "save_commit_ms_p50", commit_ms);
  SetE2e(&result, "primary_cpu_ms_per_mib", "flush_cpu_ms_per_mib",
         Quantile(flush_cpu, 0.5), "ms/MiB");
  SetWallLatency(&result, "secondary_ms_p50", "save_stall_ms_p50", stall_ms);
  SetE2e(&result, "secondary_cpu_ms_per_mib", "snapshot_cpu_ms_per_mib",
         Quantile(stall_cpu, 0.5), "ms/MiB");
  SetSetup(&result, setup_cpu, setup_s);
  result.Line(Fmt("host: wall %.2f s, process cpu %.2f s, steal %.2f%%", wall, cpu,
                  StealPct(host0, host1)));
  SetLayer(&result, "host.steal_pct", StealPct(host0, host1));

  // ---- Per-layer metrics (traced run). -------------------------------------------------
  if (options.trace) {
    const double n_saves = std::max<double>(1.0, static_cast<double>(saves));
    SetLayer(&result, "ckpt.snapshot_ms_p50",
             Quantile(ledger.Durations("save.async.snapshot"), 0.5));
    SetLayer(&result, "ckpt.max_block_ms",
             stall_ms.empty() ? 0.0 : *std::max_element(stall_ms.begin(), stall_ms.end()));
    SetLayer(&result, "ckpt.flush_ms_p50", Quantile(ledger.Durations("save.async.flush"), 0.5));
    SetLayer(&result, "ckpt.bytes_per_save",
             static_cast<double>(stats1.bytes_written - stats0.bytes_written) / n_saves);
    SetLayer(&result, "ckpt.commits", static_cast<double>(commits));
    SetLayer(&result, "ckpt.drops", static_cast<double>(stats1.drops - stats0.drops));
    SetLayer(&result, "ckpt.failures", static_cast<double>(stats1.failures - stats0.failures));
    SetLayer(&result, "store.write_ms_per_mib", timings->WriteMsPerMib());
    SetLayer(&result, "store.commit_ms_p50", Quantile(timings->CommitMs(), 0.5));
    SetLayer(&result, "store.fsyncs_per_save", window.Counter("fs.fsync.calls") / n_saves);
    SetLayer(&result, "obs.trace_overhead_pct",
             OverheadPct(traced_cpu / std::max<int64_t>(1, traced_iters),
                         untraced_cpu / std::max<int64_t>(1, untraced_iters)));
    ShardMicroTimings(dir + "/" + TagForIteration(last_saved), &result);
    result.Line(timings->Text());
    result.Line("span self time (traced segments):");
    result.Line(ledger.Text(16));
    result.Line(Fmt("trace events dropped: %llu",
                    static_cast<unsigned long long>(ledger.dropped())));
  }
  job.reset();
  return result;
}

}  // namespace perfbench
}  // namespace ucp
