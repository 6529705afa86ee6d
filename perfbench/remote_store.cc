// remote_store: one in-process StoreServer serves one RemoteStore client over a unix
// socket. Each cycle trains the source job one step (so no save re-writes identical
// state), saves it synchronously through the daemon, converts the tag to UCP on the
// daemon's root (untimed; a per-layer number only), and reshard-loads it through the
// daemon into a second 2-rank world on a different strategy. Writes and reads cross the
// same wire, server and checksum path, so a change that speeds one direction and slows
// the other shows here.
//
//   primary   = remote_save: SaveDistributedCheckpoint(RemoteStore&) on both source ranks;
//               CPU twin: process CPU (client and daemon threads) per checkpoint MiB.
//   secondary = remote_load: LoadUcpCheckpoint(RemoteStore&, "<tag>.ucp") on both target
//               ranks; CPU twin: process CPU per checkpoint MiB.

#include <cmath>
#include <memory>
#include <mutex>

#include "perfbench/timing_store.h"
#include "perfbench/workloads.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

namespace ucp {
namespace perfbench {
namespace {

constexpr int kSetups = 3;
// Next-step loss agreement between the source job and the resharded target, as in the
// UCP integration tests.
constexpr double kLossTolerance = 5e-3;

ModelConfig JobModel() {
  ModelConfig m = Gpt3Scaled();
  m.num_layers = 4;
  m.hidden = 128;
  m.ffn_hidden = 512;
  return m;
}

// Runs `body` on every rank of `run` and returns the first non-OK status.
Status RunAll(TrainingRun& run, const std::function<Status(RankTrainer&)>& body) {
  Status first = OkStatus();
  std::mutex mu;
  run.Run([&](RankTrainer& t) {
    Status s = body(t);
    std::lock_guard<std::mutex> lock(mu);
    if (!s.ok() && first.ok()) {
      first = s;
    }
  });
  return first;
}

// Daemon, client and both worlds.
struct Deployment {
  std::unique_ptr<StoreServer> server;
  std::shared_ptr<Store> store;  // the client, possibly behind the timing decorator
  std::unique_ptr<TrainingRun> source;
  std::unique_ptr<TrainingRun> target;

  ~Deployment() {
    source.reset();
    target.reset();
    store.reset();
    if (server != nullptr) {
      server->Shutdown(/*drain=*/false);
    }
  }
};

// Per-cycle measurements.
struct Cycle {
  double step_ms = 0.0, step_cpu_ms = 0.0;
  double save_ms = 0.0, save_cpu_ms = 0.0;
  double convert_ms = 0.0, extract_ms = 0.0, union_ms = 0.0;
  double load_ms = 0.0, load_cpu_ms = 0.0;
  double comm_calls = 0.0, comm_bytes = 0.0, comm_wait_ms = 0.0;
  double save_rpcs = 0.0, save_bytes_in = 0.0, save_fsyncs = 0.0;
  double load_rpcs = 0.0, load_bytes_out = 0.0, load_read_range_ms = 0.0;
  double read_calls = 0.0, chunks_verified = 0.0, bytes_read = 0.0;
  double cache_hits = 0.0, cache_lookups = 0.0;
  double reconnects = 0.0, admission_rejects = 0.0;
  bool traced = false;
};

}  // namespace

RunResult RunRemoteStore(const RunOptions& options) {
  RunResult result;
  ZeroPerLayer(&result);
  // The whole workload (rank threads, the daemon's accept and session threads, the
  // converter's pool) runs on one CPU. A reshard load is thousands of small RPCs, each a
  // wake-up of the other side; across CPUs every wake-up may find an idle vCPU, and the
  // CPU each RPC cost rose by a third on a busy host. On one CPU the two sides hand over
  // without idling, and the CPU per RPC stays put.
  const int pinned_cpu = PinToOneCpu();
  if (pinned_cpu < 0) {
    result.Fail("could not pin the workload to one CPU");
    return result;
  }
  result.Line(Fmt("pinned to cpu %d", pinned_cpu));
  const TrainerConfig src_cfg =
      SeededConfig(JobModel(), ParallelConfig{1, 1, 2, 1, 1, 1}, options.seed);
  TrainerConfig tgt_cfg = src_cfg;
  tgt_cfg.strategy = ParallelConfig{2, 1, 1, 1, 0, 1};
  const std::string root = options.run_dir + "/remote_store";
  std::shared_ptr<StoreTimings> timings = std::make_shared<StoreTimings>();

  // Target losses waiting for the source job's loss at the same iteration.
  std::map<int64_t, double> pending_target_loss;
  auto check_target = [&](int64_t it, double source_loss) {
    auto found = pending_target_loss.find(it);
    if (found == pending_target_loss.end()) {
      return;
    }
    if (!(std::fabs(found->second - source_loss) <= kLossTolerance)) {
      result.Fail(Fmt("iteration %lld: resharded target loss %.6f vs source %.6f",
                      static_cast<long long>(it), found->second, source_loss));
    }
    pending_target_loss.erase(found);
  };

  // The client has one connection and its RPCs serialize, so the loads read inline on the
  // two rank threads; loader pools would only add runnable threads on a 4-vCPU host.
  UcpLoadOptions load_options;
  load_options.num_threads = 0;

  auto run_cycle = [&](Deployment& d, int64_t it, Cycle* c) {
    const std::string tag = TagForIteration(it);
    {
      MetricsWindow w;
      const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
      const double loss = d.source->Train(it, it)[0];
      c->step_ms = (WallSeconds() - t0) * 1e3;
      c->step_cpu_ms = (ProcessCpuSeconds() - c0) * 1e3;
      c->comm_calls = w.CounterSum("comm.", ".calls");
      c->comm_bytes = w.CounterSum("comm.", ".bytes");
      c->comm_wait_ms = w.HistSumAll("comm.", ".wait_seconds") * 1e3;
      check_target(it, loss);
    }
    {
      MetricsWindow w;
      const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
      Status s = RunAll(*d.source, [&](RankTrainer& t) {
        obs::ScopedSpan span("bench.remote_save");
        return SaveDistributedCheckpoint(*d.store, t, it);
      });
      c->save_ms = (WallSeconds() - t0) * 1e3;
      c->save_cpu_ms = (ProcessCpuSeconds() - c0) * 1e3;
      c->save_rpcs = w.Counter("store.server.ops");
      c->save_bytes_in = w.Counter("store.server.bytes_in");
      c->save_fsyncs = w.Counter("fs.fsync.calls");
      c->reconnects += w.Counter("store.client.reconnects");
      c->admission_rejects += w.Counter("store.server.admission_rejects");
      result.attempted += 1;
      if (!s.ok() || !IsTagComplete(root, tag)) {
        result.Fail("remote save " + tag + ": " + s.ToString());
        return;
      }
    }
    {
      obs::ScopedSpan span("bench.convert");
      const double t0 = WallSeconds();
      Result<ConvertStats> stats = ConvertToUcp(root, tag, root + "/" + tag + ".ucp");
      c->convert_ms = (WallSeconds() - t0) * 1e3;
      result.attempted += 1;
      if (!stats.ok()) {
        result.Fail("convert " + tag + ": " + stats.status().ToString());
        return;
      }
      c->extract_ms = stats->extract_seconds * 1e3;
      c->union_ms = stats->union_seconds * 1e3;
    }
    {
      MetricsWindow w;
      const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
      Status s = RunAll(*d.target, [&](RankTrainer& t) {
        obs::ScopedSpan span("bench.remote_load");
        return LoadUcpCheckpoint(*d.store, tag + ".ucp", t, load_options);
      });
      c->load_ms = (WallSeconds() - t0) * 1e3;
      c->load_cpu_ms = (ProcessCpuSeconds() - c0) * 1e3;
      c->load_rpcs = w.Counter("store.server.ops");
      c->load_bytes_out = w.Counter("store.server.bytes_out");
      c->load_read_range_ms = w.HistSum("store.client.rpc.read_range.seconds") * 1e3;
      c->read_calls = w.Counter("tensor.io.read_calls");
      c->chunks_verified = w.Counter("tensor.io.chunks_verified");
      c->bytes_read = w.Counter("tensor.io.bytes_read");
      c->cache_hits = w.Counter("ucp.slice_cache.hits");
      c->cache_lookups = c->cache_hits + w.Counter("ucp.slice_cache.misses");
      c->reconnects += w.Counter("store.client.reconnects");
      c->admission_rejects += w.Counter("store.server.admission_rejects");
      result.attempted += 1;
      if (!s.ok()) {
        result.Fail("reshard load " + tag + ".ucp: " + s.ToString());
        return;
      }
    }
    pending_target_loss[it + 1] = d.target->Train(it + 1, it + 1)[0];
    // The previous cycle's tag and its conversion are no longer needed.
    if (it > 1) {
      LocalStore direct(root);
      Status s = direct.DeleteTag(TagForIteration(it - 1));
      if (!s.ok()) {
        result.Fail("DeleteTag: " + s.ToString());
      }
    }
  };

  // ---- Set-up, several times: daemon up, client connected, both worlds built, one cycle.
  std::unique_ptr<Deployment> deploy;
  std::vector<double> setup_s, setup_cpu;
  for (int i = 0; i < kSetups; ++i) {
    deploy.reset();
    pending_target_loss.clear();
    FreshDir(root);
    const double t0 = WallSeconds(), c0 = ProcessCpuSeconds();
    deploy = std::make_unique<Deployment>();
    StoreServerOptions server_options;
    server_options.root = root;
    server_options.listen = "unix:" + options.run_dir + "/rs" + std::to_string(i) + ".sock";
    Result<std::unique_ptr<StoreServer>> server = StoreServer::Start(server_options);
    UCP_CHECK(server.ok()) << server.status();
    deploy->server = std::move(*server);
    Result<std::shared_ptr<RemoteStore>> client = RemoteStore::Connect(deploy->server->endpoint());
    UCP_CHECK(client.ok()) << client.status();
    deploy->store = *client;
    if (options.trace) {
      deploy->store = std::make_shared<TimingStore>(deploy->store, timings);
    }
    deploy->source = std::make_unique<TrainingRun>(src_cfg);
    deploy->target = std::make_unique<TrainingRun>(tgt_cfg);
    Cycle warm;
    run_cycle(*deploy, 1, &warm);
    setup_s.push_back(WallSeconds() - t0);
    setup_cpu.push_back(ProcessCpuSeconds() - c0);
  }
  const double mib = static_cast<double>(TreeBytes(root + "/" + TagForIteration(1))) /
                     (1024.0 * 1024.0);
  result.Line(Fmt("checkpoint: %.2f MiB per save, %s -> %s", mib,
                  src_cfg.strategy.ToString().c_str(), tgt_cfg.strategy.ToString().c_str()));
  if (options.trace) {
    obs::SetTraceRingCapacity(1 << 16);
    obs::ResetTrace();
    timings->Reset();
  }

  // ---- Measured loop. -------------------------------------------------------------------
  std::vector<Cycle> cycles;
  SpanLedger ledger;
  const HostCpu host0 = ReadHostCpu();
  const double t_start = WallSeconds();
  const double c_start = ProcessCpuSeconds();
  int64_t it = 2;
  // A traced run ends on a traced cycle, whose trace is the one exported.
  for (int n = 0; WallSeconds() - t_start < options.seconds || (options.trace && n % 2 == 1);
       ++n, ++it) {
    Cycle c;
    c.traced = options.trace && n % 2 == 1;
    obs::SetTraceEnabled(c.traced);
    run_cycle(*deploy, it, &c);
    obs::SetTraceEnabled(false);
    cycles.push_back(c);
    result.Line(Fmt("cycle %lld%s: save %.1f ms cpu %.1f ms | load %.1f ms cpu %.1f ms | "
                    "convert %.1f ms", static_cast<long long>(it), c.traced ? " (traced)" : "",
                    c.save_ms, c.save_cpu_ms, c.load_ms, c.load_cpu_ms, c.convert_ms));
    if (options.trace) {
      if (c.traced && WallSeconds() - t_start >= options.seconds) {
        ExportTrace(options, "remote_store", &result);
      }
      ledger.Harvest();
    }
  }
  const double wall = WallSeconds() - t_start;
  const double cpu = ProcessCpuSeconds() - c_start;
  const HostCpu host1 = ReadHostCpu();
  // The last target loss is checked against one more source step.
  check_target(it, deploy->source->Train(it, it)[0]);
  if (!pending_target_loss.empty()) {
    result.Fail("a resharded target loss was never compared");
  }

  // ---- End-to-end metrics. --------------------------------------------------------------
  std::vector<double> step_cpu, save_ms, load_ms, save_cpu, load_cpu;
  for (const Cycle& c : cycles) {
    if (!c.traced) {
      step_cpu.push_back(c.step_cpu_ms);
      save_ms.push_back(c.save_ms);
      load_ms.push_back(c.load_ms);
      save_cpu.push_back(c.save_cpu_ms / mib);
      load_cpu.push_back(c.load_cpu_ms / mib);
    }
  }
  const double iters = static_cast<double>(cycles.size());
  SetSetup(&result, setup_cpu, setup_s);
  SetWall(&result, "train_it_s", "train_it_s (1 step per cycle)", iters / wall, "1/s");
  // The cycle's own CPU is the save and load twins below; this one is the training step.
  SetE2e(&result, "train_cpu_ms_per_it", "train_cpu_ms_per_it (source step)",
         Quantile(step_cpu, 0.5), "ms");
  SetWallLatency(&result, "primary_ms_p50", "remote_save_ms_p50", save_ms);
  SetE2e(&result, "primary_cpu_ms_per_mib", "save_cpu_ms_per_mib",
         Quantile(save_cpu, 0.5), "ms/MiB");
  SetWallLatency(&result, "secondary_ms_p50", "remote_load_ms_p50", load_ms);
  SetE2e(&result, "secondary_cpu_ms_per_mib", "load_cpu_ms_per_mib",
         Quantile(load_cpu, 0.5), "ms/MiB");
  result.Line(Fmt("host: wall %.2f s, process cpu %.2f s, steal %.2f%%", wall, cpu,
                  StealPct(host0, host1)));
  SetLayer(&result, "host.steal_pct", StealPct(host0, host1));

  // ---- Per-layer metrics (traced run; every cycle's counts, traced cycles' spans). -----
  if (options.trace) {
    auto median = [&](double Cycle::*field) {
      std::vector<double> v;
      for (const Cycle& c : cycles) {
        v.push_back(c.*field);
      }
      return Quantile(v, 0.5);
    };
    auto ratio = [&](double Cycle::*num, double Cycle::*den) {
      double a = 0.0, b = 0.0;
      for (const Cycle& c : cycles) {
        a += c.*num;
        b += c.*den;
      }
      return b > 0.0 ? a / b : 0.0;
    };
    double traced_cpu = 0.0, untraced_cpu = 0.0;
    for (const Cycle& c : cycles) {
      (c.traced ? traced_cpu : untraced_cpu) += c.save_cpu_ms + c.load_cpu_ms;
    }
    const double traced_n = std::floor(iters / 2.0), untraced_n = iters - traced_n;
    SetLayer(&result, "runtime.iter_ms_p50", median(&Cycle::step_ms));
    SetLayer(&result, "runtime.iter_cpu_ms", median(&Cycle::step_cpu_ms));
    SetLayer(&result, "comm.calls_per_it", median(&Cycle::comm_calls));
    SetLayer(&result, "comm.bytes_per_it", median(&Cycle::comm_bytes));
    SetLayer(&result, "comm.wait_ms_per_it", median(&Cycle::comm_wait_ms));
    SetLayer(&result, "tensor.read_calls_per_load", median(&Cycle::read_calls));
    SetLayer(&result, "tensor.chunks_verified_per_load", median(&Cycle::chunks_verified));
    SetLayer(&result, "tensor.read_amplification",
             median(&Cycle::bytes_read) / (mib * 1024.0 * 1024.0));
    SetLayer(&result, "store.write_ms_per_mib", timings->WriteMsPerMib());
    SetLayer(&result, "store.commit_ms_p50", Quantile(timings->CommitMs(), 0.5));
    SetLayer(&result, "store.fsyncs_per_save", median(&Cycle::save_fsyncs));
    SetLayer(&result, "store.read_ms_per_mib", timings->ReadMsPerMib());
    SetLayer(&result, "wire.rpcs_per_save", median(&Cycle::save_rpcs));
    SetLayer(&result, "wire.rpcs_per_load", median(&Cycle::load_rpcs));
    SetLayer(&result, "wire.bytes_in_per_save", median(&Cycle::save_bytes_in));
    SetLayer(&result, "wire.bytes_out_per_load", median(&Cycle::load_bytes_out));
    SetLayer(&result, "wire.read_range_ms_per_load", median(&Cycle::load_read_range_ms));
    double reconnects = 0.0, rejects = 0.0;
    for (const Cycle& c : cycles) {
      reconnects += c.reconnects;
      rejects += c.admission_rejects;
    }
    SetLayer(&result, "store.client.reconnects", reconnects);
    SetLayer(&result, "store.server.admission_rejects", rejects);
    SetLayer(&result, "ucp.convert_ms_p50", median(&Cycle::convert_ms));
    SetLayer(&result, "ucp.extract_ms", median(&Cycle::extract_ms));
    SetLayer(&result, "ucp.union_ms", median(&Cycle::union_ms));
    SetLayer(&result, "ucp.load_ms_p50", Quantile(ledger.Durations("ucp.load"), 0.5));
    SetLayer(&result, "ucp.slice_cache_hit_ratio",
             ratio(&Cycle::cache_hits, &Cycle::cache_lookups));
    SetLayer(&result, "obs.trace_overhead_pct",
             OverheadPct(traced_cpu / std::max(1.0, traced_n),
                         untraced_cpu / std::max(1.0, untraced_n)));
    ShardMicroTimings(root + "/" + TagForIteration(it - 1), &result);
    result.Line(timings->Text());
    result.Line("span self time (traced cycles):");
    result.Line(ledger.Text(16));
    result.Line(Fmt("trace events dropped: %llu",
                    static_cast<unsigned long long>(ledger.dropped())));
  }
  deploy.reset();
  return result;
}

}  // namespace perfbench
}  // namespace ucp
