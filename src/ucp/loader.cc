#include "src/ucp/loader.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>

#include "src/common/fs.h"
#include "src/common/thread_pool.h"
#include "src/store/local_store.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/slice_cache.h"

namespace ucp {

namespace {
int64_t AlignUp(int64_t value, int64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}
}  // namespace

Json RankLoadPlan::ToJson() const {
  JsonObject obj;
  obj["flat_layout"] = layout.ToJson();
  obj["partition_offset"] = partition_offset;
  obj["partition_numel"] = partition_numel;
  JsonArray assigns;
  for (const AtomAssignment& a : assignments) {
    JsonObject item;
    item["name"] = a.name;
    item["flat_offset"] = a.flat_offset;
    JsonArray full_shape;
    for (int64_t d : a.full_shape) {
      full_shape.push_back(Json(d));
    }
    item["full_shape"] = Json(std::move(full_shape));
    JsonArray shape;
    for (int64_t d : a.shard_shape) {
      shape.push_back(Json(d));
    }
    item["shard_shape"] = Json(std::move(shape));
    item["partition_kind"] = PartitionKindName(a.target_spec.kind);
    item["partition_dim"] = a.target_spec.dim;
    assigns.push_back(Json(std::move(item)));
  }
  obj["assignments"] = Json(std::move(assigns));
  return Json(std::move(obj));
}

RankLoadPlan GenUcpMetadata(const ModelConfig& model, const ParallelConfig& target,
                            const RankCoord& coord) {
  RankLoadPlan plan;
  std::vector<InventoryEntry> inventory = BuildInventory(model);
  std::vector<InventoryEntry> mine = StageEntries(inventory, model, coord.pp, target.pp);

  int64_t offset = 0;
  for (const InventoryEntry& entry : mine) {
    PartitionSpec spec = EffectiveSpec(entry, target);
    Shape shard_shape = ShardShape(spec, entry.param.full_shape, target.tp);

    AtomAssignment assignment;
    assignment.name = entry.param.name;
    assignment.flat_offset = offset;
    assignment.full_shape = entry.param.full_shape;
    assignment.shard_shape = shard_shape;
    assignment.target_spec = spec;
    plan.assignments.push_back(std::move(assignment));

    FlatSegment seg;
    seg.name = entry.param.name;
    seg.offset = offset;
    seg.numel = ShapeNumel(shard_shape);
    seg.shape = shard_shape;
    seg.decay = entry.param.decay;
    seg.norm_counts = NormCounts(entry, model, target, coord);
    plan.layout.segments.push_back(std::move(seg));
    offset += ShapeNumel(shard_shape);
  }

  plan.layout.total = offset;
  // Re-introduce the alignment padding the target's ZeRO partitioning requires — the
  // inverse of StripPadding (paper: "Padding is also introduced when calculating the
  // partition information").
  plan.layout.padded_total =
      AlignUp(std::max<int64_t>(offset, 1), static_cast<int64_t>(target.dp) * kZeroAlignment);
  plan.layout.partition_size = plan.layout.padded_total / target.dp;

  if (target.zero_stage == 0) {
    plan.partition_offset = 0;
    plan.partition_numel = plan.layout.padded_total;
  } else {
    plan.partition_offset = static_cast<int64_t>(coord.dp) * plan.layout.partition_size;
    plan.partition_numel = plan.layout.partition_size;
  }
  return plan;
}

namespace {

struct UcpLocalState {
  Tensor master;
  Tensor exp_avg;
  Tensor exp_avg_sq;
  int64_t steps = 0;
  // The slice-cache entries this rank's gathers used. Held until every rank has finished
  // its reads (the agreement in LoadUcpCheckpoint), so each identical gather is read once
  // however the co-located ranks' loads interleave.
  std::vector<std::shared_ptr<const Tensor>> cache_pins;
};

constexpr const char* kStateFiles[3] = {"fp32", "exp_avg", "exp_avg_sq"};

// One contiguous range of an atom file that a gather reads.
struct FileRange {
  int64_t begin = 0;  // element offset in the file
  int64_t count = 0;
};

// The exact file elements of a gather, for a slice-cache key: each maximal progression of
// equal-length ranges at one stride as "begin+count*n@stride", a lone range as
// "begin+count" (so a one-range gather keeps the historical per-range key).
std::string GatherKey(const std::vector<FileRange>& ranges) {
  std::string key;
  for (size_t i = 0; i < ranges.size();) {
    size_t j = i + 1;
    const int64_t stride = j < ranges.size() ? ranges[j].begin - ranges[i].begin : 0;
    while (j < ranges.size() && ranges[j].count == ranges[i].count &&
           ranges[j].begin - ranges[j - 1].begin == stride) {
      ++j;
    }
    if (i > 0) {
      key += ',';
    }
    key += std::to_string(ranges[i].begin);
    key += '+';
    key += std::to_string(ranges[i].count);
    if (j - i > 1) {
      key += '*';
      key += std::to_string(j - i);
      key += '@';
      key += std::to_string(stride);
    }
    i = j;
  }
  return key;
}

// One assignment's read for this rank: the part of the atom's shard inside the rank's
// partition, the shard-flat window [want_lo, want_hi), and the file ranges that back it
// (dim-0 shards: one range; dim>0 shards: a strided gather of one range per row). The same
// ranges serve the fp32, exp_avg and exp_avg_sq files.
struct AtomGather {
  const AtomAssignment* assignment = nullptr;
  int64_t want_lo = 0;
  int64_t want_hi = 0;
  std::vector<FileRange> ranges;
  std::string gather_key;  // GatherKey(ranges)
  bool shared = false;     // another rank of the target world makes the identical gather
};

// The gathers rank `coord` makes under `plan`: one per assignment that intersects its
// partition; assignments wholly outside it are skipped and their files never opened.
std::vector<AtomGather> PlanGathers(const RankLoadPlan& plan, const ParallelConfig& target,
                                    const RankCoord& coord) {
  const int64_t p0 = plan.partition_offset;
  const int64_t p1 = plan.partition_offset + plan.partition_numel;
  std::vector<AtomGather> gathers;
  for (const AtomAssignment& a : plan.assignments) {
    AtomGather g;
    g.assignment = &a;
    g.want_lo = std::max<int64_t>(0, p0 - a.flat_offset);
    g.want_hi = std::min<int64_t>(ShapeNumel(a.shard_shape), p1 - a.flat_offset);
    if (g.want_lo >= g.want_hi) {
      continue;
    }
    // Runs are in ascending shard order and tile the shard, so the ranges fill the window
    // in order.
    for (const ShardRun& run : ShardRuns(a.target_spec, a.full_shape, target.tp, coord.tp)) {
      const int64_t lo = std::max(run.shard_offset, g.want_lo);
      const int64_t hi = std::min(run.shard_offset + run.numel, g.want_hi);
      if (lo < hi) {
        g.ranges.push_back({run.full_offset + (lo - run.shard_offset), hi - lo});
      }
    }
    g.gather_key = GatherKey(g.ranges);
    gathers.push_back(std::move(g));
  }
  return gathers;
}

// Marks the gathers of `mine` that another rank of the target world makes too: the only
// ones worth a slice-cache entry. Every plan derives from the config alone, so each rank
// reaches the same verdict for a gather without any exchange.
void MarkSharedGathers(const RankTrainer& trainer, std::vector<AtomGather>& mine) {
  const ParallelConfig& target = trainer.config().strategy;
  std::set<std::string> peer_gathers;  // "<atom>#<GatherKey>"
  for (int r = 0; r < target.world_size(); ++r) {
    if (r == trainer.rank()) {
      continue;
    }
    const RankCoord coord = trainer.topology()->CoordOf(r);
    const RankLoadPlan plan = GenUcpMetadata(trainer.config().model, target, coord);
    for (const AtomGather& g : PlanGathers(plan, target, coord)) {
      peer_gathers.insert(g.assignment->name + "#" + g.gather_key);
    }
  }
  for (AtomGather& g : mine) {
    g.shared = peer_gathers.count(g.assignment->name + "#" + g.gather_key) > 0;
  }
}

// Reads one atom state file's part of a gather into `out` (want_hi - want_lo elements of
// this rank's partition), with each chunk read and verified once by the view. A gather
// another rank shares goes through the slice cache as one entry, so the ranks that share
// it (replicated atoms on TP peers, every atom on ZeRO-0 DP peers) read it once and the
// rest copy; the TensorFileView opens lazily, so with a warm cache a task never touches
// the file. A gather no one shares reads straight into the partition.
Status ReadGather(Store& store, const std::string& rel, const AtomGather& g, float* out,
                  bool use_cache, std::shared_ptr<const Tensor>& pin) {
  const AtomAssignment& a = *g.assignment;
  auto gather = [&](float* dst) -> Status {
    UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, store.OpenRead(rel));
    UCP_ASSIGN_OR_RETURN(TensorFileView view, TensorFileView::Open(std::move(source)));
    if (view.info().shape != a.full_shape) {
      return DataLossError("atom file " + rel + " has shape " +
                           ShapeToString(view.info().shape) + ", plan expects " +
                           ShapeToString(a.full_shape));
    }
    for (const FileRange& r : g.ranges) {
      UCP_RETURN_IF_ERROR(view.ReadElements(r.begin, r.count, dst));
      dst += r.count;
    }
    return OkStatus();
  };
  if (!use_cache || !g.shared) {
    return gather(out);
  }
  const int64_t count = g.want_hi - g.want_lo;
  // CacheKey keeps LocalStore keys identical to the historical absolute-path keys.
  UCP_ASSIGN_OR_RETURN(
      std::shared_ptr<const Tensor> slice,
      AtomSliceCache::Global().GetOrLoad(
          store.CacheKey(rel) + "#" + g.gather_key, [&]() -> Result<Tensor> {
            Tensor t = Tensor::Zeros({count});
            UCP_RETURN_IF_ERROR(gather(t.data()));
            return t;
          }));
  std::memcpy(out, slice->data(), static_cast<size_t>(count) * sizeof(float));
  pin = std::move(slice);
  return OkStatus();
}

// Per-rank phase: planning, atom reads, flat assembly — no collectives (failures here must
// not strand peers; see the agreement in LoadUcpCheckpoint).
Result<UcpLocalState> LoadUcpLocal(Store& store, const std::string& ucp_rel,
                                   RankTrainer& trainer, const UcpLoadOptions& options) {
  // A metadata file without the converter's `complete` marker is an aborted conversion:
  // atoms may be missing or half-written even though the manifest parses.
  Result<bool> has_meta = store.Exists(JoinRel(ucp_rel, "ucp_meta.json"));
  if (has_meta.ok() && *has_meta && !IsUcpComplete(store, ucp_rel)) {
    return DataLossError("UCP checkpoint at " + JoinRel(store.Describe(), ucp_rel) +
                         " is not committed (missing 'complete' marker)");
  }
  UCP_ASSIGN_OR_RETURN(UcpMeta meta, ReadUcpMeta(store, ucp_rel));
  if (!SameLogicalModel(meta.model, trainer.config().model)) {
    return FailedPreconditionError(
        "UCP checkpoint was produced by a different model architecture");
  }

  const RankCoord& coord = trainer.coord();
  const ParallelConfig& target = trainer.config().strategy;
  // Plan against the trainer's config (its sharding-mode preferences decide the target
  // partitioning; the atoms themselves are mode-agnostic).
  RankLoadPlan plan = GenUcpMetadata(trainer.config().model, target, coord);

  // Cross-check the plan against the live optimizer layout; a mismatch means the planner
  // and the runtime disagree about the model, which must never pass silently.
  const FlatLayout& live = trainer.optimizer().layout();
  if (live.padded_total != plan.layout.padded_total ||
      live.segments.size() != plan.layout.segments.size()) {
    return InternalError("GenUcpMetadata plan does not match the live optimizer layout");
  }
  for (size_t i = 0; i < live.segments.size(); ++i) {
    if (live.segments[i].name != plan.layout.segments[i].name ||
        live.segments[i].offset != plan.layout.segments[i].offset ||
        live.segments[i].numel != plan.layout.segments[i].numel) {
      return InternalError("GenUcpMetadata segment mismatch at " + live.segments[i].name);
    }
  }

  if (!options.sliced) {
    // Reference arm: whole-file atom reads, full padded flat assembly, partition sliced at
    // the end. Kept for bit-exactness testing and as the BENCH_load_cost serial baseline.
    Tensor flat_fp32 = Tensor::Zeros({plan.layout.padded_total});
    Tensor flat_m = Tensor::Zeros({plan.layout.padded_total});
    Tensor flat_v = Tensor::Zeros({plan.layout.padded_total});

    for (const AtomAssignment& a : plan.assignments) {
      UCP_TRACE_SPAN_ARGS("ucp.load.atom", ::ucp::obs::TraceArgs().S("atom", a.name));
      UCP_ASSIGN_OR_RETURN(ParamState atom, ReadAtom(store, ucp_rel, a.name));
      Tensor fp32_shard = ShardOf(a.target_spec, atom.fp32, target.tp, coord.tp);
      Tensor m_shard = ShardOf(a.target_spec, atom.exp_avg, target.tp, coord.tp);
      Tensor v_shard = ShardOf(a.target_spec, atom.exp_avg_sq, target.tp, coord.tp);
      if (fp32_shard.shape() != a.shard_shape) {
        return DataLossError("atom " + a.name + " yields shard " +
                             ShapeToString(fp32_shard.shape()) + ", plan expects " +
                             ShapeToString(a.shard_shape));
      }
      Tensor::ViewOf(flat_fp32, a.flat_offset, {fp32_shard.numel()})
          .CopyFrom(fp32_shard.Flatten());
      Tensor::ViewOf(flat_m, a.flat_offset, {m_shard.numel()}).CopyFrom(m_shard.Flatten());
      Tensor::ViewOf(flat_v, a.flat_offset, {v_shard.numel()}).CopyFrom(v_shard.Flatten());
    }

    UcpLocalState state;
    state.master = flat_fp32.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.exp_avg = flat_m.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.exp_avg_sq = flat_v.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.steps = meta.iteration;
    return state;
  }

  // Sliced arm: allocate only this rank's partition (padding stays zero, matching the
  // reference arm bit-for-bit) and read just the atom ranges that intersect it.
  const int64_t p0 = plan.partition_offset;
  UcpLocalState state;
  state.master = Tensor::Zeros({plan.partition_numel});
  state.exp_avg = Tensor::Zeros({plan.partition_numel});
  state.exp_avg_sq = Tensor::Zeros({plan.partition_numel});
  state.steps = meta.iteration;
  float* buffers[3] = {state.master.data(), state.exp_avg.data(), state.exp_avg_sq.data()};

  std::vector<AtomGather> gathers = PlanGathers(plan, target, coord);
  if (options.use_slice_cache) {
    MarkSharedGathers(trainer, gathers);
  }
  // One task per gather × (fp32 | exp_avg | exp_avg_sq) file.
  const size_t num_tasks = gathers.size() * 3;
  std::vector<Status> results(num_tasks);
  state.cache_pins.resize(num_tasks);  // one slot per task, so workers never share one
  ThreadPool pool(static_cast<size_t>(std::max(options.num_threads, 0)));
  pool.ParallelFor(num_tasks, [&](size_t i) {
    const AtomGather& g = gathers[i / 3];
    const int state_index = static_cast<int>(i % 3);
    const AtomAssignment& a = *g.assignment;
    UCP_TRACE_SPAN_ARGS("ucp.load.slice", ::ucp::obs::TraceArgs()
                                              .S("atom", a.name)
                                              .S("state", kStateFiles[state_index])
                                              .I("numel", g.want_hi - g.want_lo));
    std::string rel = JoinRel(AtomRel(ucp_rel, a.name), kStateFiles[state_index]);
    float* out = buffers[state_index] + (a.flat_offset + g.want_lo - p0);
    results[i] = ReadGather(store, rel, g, out, options.use_slice_cache, state.cache_pins[i]);
  });
  for (const Status& s : results) {
    UCP_RETURN_IF_ERROR(s);
  }
  return state;
}

}  // namespace

Status LoadUcpCheckpoint(const std::string& ucp_dir, RankTrainer& trainer) {
  return LoadUcpCheckpoint(ucp_dir, trainer, UcpLoadOptions{});
}

Status LoadUcpCheckpoint(const std::string& ucp_dir, RankTrainer& trainer,
                         const UcpLoadOptions& options) {
  LocalStore store(ucp_dir);
  return LoadUcpCheckpoint(store, "", trainer, options);
}

Status LoadUcpCheckpoint(Store& store, const std::string& ucp_rel, RankTrainer& trainer,
                         const UcpLoadOptions& options) {
  UCP_TRACE_NAMED_SPAN(span, "ucp.load");
  UCP_TRACE_SPAN_ARG_S(span, "mode", options.sliced ? "sliced" : "serial");
  static obs::Counter& loads = obs::MetricsRegistry::Global().GetCounter("ucp.loads");
  static obs::Histogram& load_seconds =
      obs::MetricsRegistry::Global().GetHistogram("ucp.load.seconds");
  const auto load_start = std::chrono::steady_clock::now();
  Result<UcpLocalState> local = LoadUcpLocal(store, ucp_rel, trainer, options);
  // Collective agreement before LoadState's DP all-gather (same rationale as the native
  // loader): every rank reaches this reduction, so one rank's failure fails all ranks
  // instead of deadlocking the collective.
  double peer_failed =
      trainer.groups().world.AllReduceMaxScalar(local.ok() ? 0.0 : 1.0);
  if (!local.ok()) {
    return local.status();
  }
  if (peer_failed > 0.0) {
    return DataLossError("aborting UCP load: a peer rank failed to read the checkpoint");
  }
  local->cache_pins.clear();
  UCP_RETURN_IF_ERROR(
      trainer.LoadState(local->master, local->exp_avg, local->exp_avg_sq, local->steps));
  loads.Add(1);
  load_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - load_start).count());
  return OkStatus();
}

}  // namespace ucp
