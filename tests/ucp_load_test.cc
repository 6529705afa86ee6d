// The sliced load path (v3 range reads), as properties:
//
//  1. Bit-exact equivalence: the partition-pruned parallel loader produces exactly the
//     optimizer state of the whole-file reference arm, across a {TP}x{PP}x{DP}x{ZeRO}
//     target grid.
//  2. Chunked CRCs localize damage: bit-rot inside one 64 KiB chunk fails only the ranges
//     that touch it; untouched ranges still load, and header-only Stat still succeeds.
//  3. One format: a file whose version field is not 3 — with a valid whole-file CRC, so
//     it is not damage — fails closed with kFailedPrecondition through every reader.
//  4. The sliced arm reads strictly fewer bytes than the reference arm.
//  5. The slice cache holds one entry per gather, shared by every rank whose gather is
//     identical; it dedups concurrent identical reads and drops failed loads.
//  6. A view reads each chunk once: the chunk it last read whole, and the small payloads
//     its head read carried, are served from memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/ckpt/checkpoint.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"
#include "src/ucp/slice_cache.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ModelConfig& model, const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  cfg.lr.warmup_iters = 2;
  cfg.lr.decay_iters = 30;
  return cfg;
}

class LoadEnv : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_load"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }

  // Trains a small source run and converts its checkpoint to UCP at Sub("ucp").
  void MakeUcp(const ModelConfig& model) {
    TrainingRun source(ConfigFor(model, {1, 1, 2, 1, 1, 1}));
    source.Train(1, 3);
    source.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(Sub("src"), t, 3);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    Result<ConvertStats> stats =
        ConvertToUcp(Sub("src"), "global_step3", Sub("ucp"), {.num_threads = 2});
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  static void LoadAll(TrainingRun& run, const std::string& ucp_dir,
                      const UcpLoadOptions& options) {
    run.Run([&](RankTrainer& t) {
      Status s = LoadUcpCheckpoint(ucp_dir, t, options);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
};

// Property 1: the sliced parallel loader and the whole-file reference arm install
// bit-identical optimizer state on every rank, across the target grid.
TEST_F(LoadEnv, SlicedMatchesWholeFileAcrossTargetGrid) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);

  for (int tp : {1, 2, 4}) {
    for (int pp : {1, 2}) {
      for (int dp : {1, 2}) {
        for (int zero : {0, 1}) {
          ParallelConfig target{tp, pp, dp, 1, zero, 1};
          SCOPED_TRACE(target.ToString());

          TrainingRun sliced(ConfigFor(model, target));
          LoadAll(sliced, Sub("ucp"),
                  {.num_threads = 4, .sliced = true, .use_slice_cache = true});
          TrainingRun whole(ConfigFor(model, target));
          LoadAll(whole, Sub("ucp"), {.sliced = false});

          for (int r = 0; r < sliced.world_size(); ++r) {
            const ZeroOptimizer& a = sliced.trainer(r).optimizer();
            const ZeroOptimizer& b = whole.trainer(r).optimizer();
            EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
            EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
            EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState()))
                << "rank " << r;
            EXPECT_EQ(a.steps_taken(), b.steps_taken()) << "rank " << r;
          }
        }
      }
    }
  }
}

// The sliced loader also runs correctly with zero worker threads (inline) and without the
// cache — the knobs are independent of correctness.
TEST_F(LoadEnv, SlicedInlineNoCacheStillExact) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);
  ParallelConfig target{2, 1, 2, 1, 1, 1};

  TrainingRun inline_run(ConfigFor(model, target));
  LoadAll(inline_run, Sub("ucp"),
          {.num_threads = 0, .sliced = true, .use_slice_cache = false});
  TrainingRun whole(ConfigFor(model, target));
  LoadAll(whole, Sub("ucp"), {.sliced = false});
  for (int r = 0; r < inline_run.world_size(); ++r) {
    EXPECT_TRUE(Tensor::BitEqual(inline_run.trainer(r).optimizer().MasterState(),
                                 whole.trainer(r).optimizer().MasterState()));
  }
}

// Property 2: damage inside one CRC chunk is invisible to ranges that avoid the chunk and
// fatal to ranges that touch it. Header-only Stat keeps working (the header has its own CRC).
TEST_F(LoadEnv, ChunkCrcLocalizesBitRot) {
  // 256x320 fp32 = 327680 payload bytes = 5 chunks of 64 KiB.
  Tensor t = Tensor::Zeros({256, 320});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 977) * 0.5f;
  }
  const std::string path = Sub("chunked");
  ASSERT_TRUE(SaveTensor(path, t).ok());

  Result<TensorFileInfo> info = StatTensor(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_version, 3u);
  EXPECT_EQ(info->chunk_bytes, 64u * 1024);
  EXPECT_EQ(info->num_chunks, 5u);

  // Flip one byte in chunk 2. The payload starts at header_bytes, recorded at offset 12.
  std::string raw = *ReadFileToString(path);
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, raw.data() + 12, sizeof(header_bytes));
  raw[header_bytes + 2 * 65536 + 123] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  // The header is untouched, so planning APIs still work.
  EXPECT_TRUE(StatTensor(path).ok());
  // Whole-file readers and the deep verifier must notice.
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DeepVerifyTensorFile(path).code(), StatusCode::kDataLoss);

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  // Rows [0, 50) live in bytes [0, 64000): chunk 0 only — loads clean and bit-exact.
  Result<Tensor> head = view->ReadRange(0, 50);
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_TRUE(Tensor::BitEqual(*head, t.Narrow(0, 0, 50)));
  // Rows [160, 256) live in chunks 3-4 — also untouched.
  Result<Tensor> tail = view->ReadRange(160, 96);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_TRUE(Tensor::BitEqual(*tail, t.Narrow(0, 160, 96)));
  // Rows [100, 120) straddle the corrupted chunk 2 — caught by its CRC.
  Status bad = view->ReadRange(100, 20).status();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.ToString().find("per-tensor CRC"), std::string::npos) << bad.ToString();
}

// Chunk verification is memoized per view: re-reading a verified range does not re-verify
// its chunks; an unverified chunk is fetched whole exactly once, and the chunk a view last
// read whole stays in memory, so a re-read inside it fetches nothing.
TEST_F(LoadEnv, ChunkVerificationIsMemoizedPerView) {
  Tensor t = Tensor::Zeros({256, 320});
  const std::string path = Sub("memo");
  ASSERT_TRUE(SaveTensor(path, t).ok());

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->ReadRange(0, 50).ok());
  TensorIoStats first = GetTensorIoStats();
  ASSERT_TRUE(view->ReadRange(0, 50).ok());
  TensorIoStats second = GetTensorIoStats();
  EXPECT_EQ(second.chunks_verified, first.chunks_verified);
  // Rows [0, 50) lie in chunk 0, the chunk the view last read whole: no read at all.
  EXPECT_EQ(second.bytes_read - first.bytes_read, 0u);
  EXPECT_EQ(second.read_calls - first.read_calls, 0u);
}

// A verified chunk that is no longer the view's window is re-read only where a range
// overlaps it, not fetched whole and not verified again.
TEST_F(LoadEnv, VerifiedChunkOutsideWindowReadsOnlyOverlap) {
  Tensor t = Tensor::Zeros({256, 320});  // 1280-byte rows, 64 KiB chunks
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 613);
  }
  const std::string path = Sub("overlap");
  ASSERT_TRUE(SaveTensor(path, t).ok());

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->ReadRange(0, 50).ok());   // verifies chunk 0
  ASSERT_TRUE(view->ReadRange(60, 40).ok());  // bytes [76800, 128000): chunk 1 is the window
  TensorIoStats before = GetTensorIoStats();
  Result<Tensor> again = view->ReadRange(0, 50);
  ASSERT_TRUE(again.ok());
  TensorIoStats after = GetTensorIoStats();
  EXPECT_TRUE(Tensor::BitEqual(*again, t.Narrow(0, 0, 50)));
  EXPECT_EQ(after.chunks_verified, before.chunks_verified);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 50u * 320 * 4);
  EXPECT_EQ(after.read_calls - before.read_calls, 1u);
}

// Counts the positional reads made through it.
class CountingSource final : public ByteSource {
 public:
  CountingSource(std::unique_ptr<ByteSource> inner, int* reads)
      : inner_(std::move(inner)), reads_(reads) {}
  uint64_t size() const override { return inner_->size(); }
  const std::string& name() const override { return inner_->name(); }
  Status ReadAt(uint64_t offset, void* out, size_t size) override {
    ++*reads_;
    return inner_->ReadAt(offset, out, size);
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  int* reads_;
};

Result<TensorFileView> OpenCounting(const std::string& path, int* reads) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> file, FileByteSource::Open(path));
  return TensorFileView::Open(std::make_unique<CountingSource>(std::move(file), reads));
}

// A small atom (a bias, a norm) lies wholly inside the 4 KiB head read that Open makes:
// Open verifies its chunk from those bytes, so loading it takes exactly that one read.
TEST_F(LoadEnv, PayloadInHeadReadTakesOneRead) {
  Tensor bias = Tensor::Zeros({96});
  for (int64_t i = 0; i < bias.numel(); ++i) {
    bias.data()[i] = 0.25f * static_cast<float>(i);
  }
  const std::string path = Sub("bias");
  ASSERT_TRUE(SaveTensor(path, bias).ok());

  int reads = 0;
  Result<TensorFileView> view = OpenCounting(path, &reads);
  ASSERT_TRUE(view.ok()) << view.status();
  Result<Tensor> all = view->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_TRUE(Tensor::BitEqual(*all, bias));
  Result<Tensor> part = view->ReadRange(10, 20);
  ASSERT_TRUE(part.ok()) << part.status();
  EXPECT_TRUE(Tensor::BitEqual(*part, bias.Narrow(0, 10, 20)));
  EXPECT_EQ(reads, 1);  // the head read, made by Open
}

// Bit rot in a chunk that the head read carried does not fail Open: the chunk stays
// unverified and the first read that touches it fails with the usual chunk-CRC error.
TEST_F(LoadEnv, BitRotInHeadCarriedChunkFailsTheRead) {
  const std::string path = Sub("rotted_bias");
  ASSERT_TRUE(SaveTensor(path, Tensor::Zeros({96})).ok());
  std::string raw = *ReadFileToString(path);
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, raw.data() + 12, sizeof(header_bytes));
  raw[header_bytes + 17] ^= 0x08;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  Status bad = view->ReadRange(0, 1).status();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.ToString().find("per-tensor CRC mismatch in " + path + " (chunk 0 of 1)"),
            std::string::npos)
      << bad.ToString();

  // In a bundle, members the head carried before the damaged one still read from memory;
  // the damaged member fails on read, named.
  const std::string bundle_path = Sub("rotted_bundle");
  TensorBundle bundle;
  bundle.Add("a", Tensor::Full({16}, 1.0f));
  bundle.Add("b", Tensor::Full({16}, 1.0f));
  bundle.meta = Json(JsonObject{});
  ASSERT_TRUE(SaveBundle(bundle_path, bundle).ok());
  std::string bytes = *ReadFileToString(bundle_path);
  std::memcpy(&header_bytes, bytes.data() + 12, sizeof(header_bytes));
  bytes[header_bytes + 16 * 4 + 5] ^= 0x01;  // inside member "b"
  ASSERT_TRUE(WriteFileAtomic(bundle_path, bytes).ok());
  Result<BundleFileView> bview = BundleFileView::Open(bundle_path);
  ASSERT_TRUE(bview.ok()) << bview.status();
  Result<Tensor> a = bview->ReadTensor("a");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(Tensor::BitEqual(*a, Tensor::Full({16}, 1.0f)));
  Status bad_b = bview->ReadTensor("b").status();
  EXPECT_EQ(bad_b.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad_b.ToString().find(bundle_path + ":b"), std::string::npos) << bad_b.ToString();
}

// Rewrites the version field of a saved container file and re-seals its trailing CRC, so the
// file is intact but claims another format version.
void PatchVersionAndReseal(const std::string& path, uint32_t version) {
  std::string contents = *ReadFileToString(path);
  ASSERT_GT(contents.size(), 16u);
  std::memcpy(contents.data() + 8, &version, 4);
  const uint32_t crc = Crc32(contents.data(), contents.size() - 4);
  std::memcpy(contents.data() + contents.size() - 4, &crc, 4);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
}

// Property 3: every reader entry point refuses a well-formed file of another version.
TEST_F(LoadEnv, OtherFormatVersionFailsClosedThroughEveryReader) {
  const std::string tensor_path = Sub("tensor");
  ASSERT_TRUE(SaveTensor(tensor_path, Tensor::Zeros({7, 9})).ok());
  PatchVersionAndReseal(tensor_path, 2);
  EXPECT_EQ(LoadTensor(tensor_path).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatTensor(tensor_path).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(TensorFileView::Open(tensor_path).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DeepVerifyTensorFile(tensor_path).code(), StatusCode::kFailedPrecondition);

  const std::string bundle_path = Sub("bundle");
  TensorBundle bundle;
  bundle.Add("w", Tensor::Zeros({5, 3}));
  bundle.meta = Json(JsonObject{});
  ASSERT_TRUE(SaveBundle(bundle_path, bundle).ok());
  PatchVersionAndReseal(bundle_path, 2);
  EXPECT_EQ(LoadBundle(bundle_path).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatBundle(bundle_path).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(BundleFileView::Open(bundle_path).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DeepVerifyBundleFile(bundle_path).code(), StatusCode::kFailedPrecondition);
}

// Property 4: on a TP2·DP2 target the sliced arm moves at most half the bytes the
// whole-file arm does (partition pruning alone guarantees this; dedup only helps).
TEST_F(LoadEnv, SlicedArmReadsFewerBytes) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);
  ParallelConfig target{2, 1, 2, 1, 1, 1};

  TrainingRun whole(ConfigFor(model, target));
  ResetTensorIoStats();
  LoadAll(whole, Sub("ucp"), {.sliced = false});
  const uint64_t whole_bytes = GetTensorIoStats().bytes_read;

  TrainingRun sliced(ConfigFor(model, target));
  ResetTensorIoStats();
  LoadAll(sliced, Sub("ucp"), {.num_threads = 4, .sliced = true});
  const uint64_t sliced_bytes = GetTensorIoStats().bytes_read;

  EXPECT_GT(whole_bytes, 0u);
  EXPECT_LE(sliced_bytes * 2, whole_bytes)
      << "sliced " << sliced_bytes << " vs whole " << whole_bytes;
}

bool SameRuns(const std::vector<ShardRun>& a, const std::vector<ShardRun>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ShardRun& x, const ShardRun& y) {
                      return x.shard_offset == y.shard_offset &&
                             x.full_offset == y.full_offset && x.numel == y.numel;
                    });
}

// Property 5: the slice cache holds one entry per gather. On a TP2·DP2·ZeRO-0 target the
// DP peers of each TP rank gather identical bytes from every atom, and the TP peers
// identical bytes from replicated atoms, so each distinct gather misses once and every
// other lookup hits — strided (dim>0) gathers included. The result is bit-exact with the
// cache off.
TEST_F(LoadEnv, SliceCacheSharesWholeGathersAcrossPeers) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);
  ParallelConfig target{2, 1, 2, 1, 0, 1};

  // Distinct gathers: one per replicated atom, one per TP rank for a sharded one.
  const RankLoadPlan plan = GenUcpMetadata(model, target, RankCoord{});
  uint64_t distinct = 0;
  int strided_atoms = 0;
  int replicated_atoms = 0;
  for (const AtomAssignment& a : plan.assignments) {
    const std::vector<ShardRun> r0 = ShardRuns(a.target_spec, a.full_shape, 2, 0);
    const std::vector<ShardRun> r1 = ShardRuns(a.target_spec, a.full_shape, 2, 1);
    const bool shared = SameRuns(r0, r1);
    distinct += shared ? 1 : 2;
    replicated_atoms += shared ? 1 : 0;
    strided_atoms += r0.size() > 1 ? 1 : 0;
  }
  ASSERT_GT(replicated_atoms, 0);
  ASSERT_GT(strided_atoms, 0);
  const uint64_t kStates = 3;
  const uint64_t lookups = kStates * 4 * plan.assignments.size();

  AtomSliceCache& cache = AtomSliceCache::Global();
  cache.ResetStats();
  TrainingRun cached(ConfigFor(model, target));
  LoadAll(cached, Sub("ucp"), {.num_threads = 2, .sliced = true, .use_slice_cache = true});
  EXPECT_EQ(cache.stats().misses, kStates * distinct);
  EXPECT_EQ(cache.stats().hits, lookups - kStates * distinct);

  TrainingRun uncached(ConfigFor(model, target));
  LoadAll(uncached, Sub("ucp"), {.num_threads = 2, .sliced = true, .use_slice_cache = false});
  for (int r = 0; r < cached.world_size(); ++r) {
    const ZeroOptimizer& a = cached.trainer(r).optimizer();
    const ZeroOptimizer& b = uncached.trainer(r).optimizer();
    EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState())) << "rank " << r;
  }
}

// Property 5a: concurrent identical keys run the loader once; later callers share the slice
// while someone still holds it.
TEST_F(LoadEnv, SliceCacheDedupsWhileHeld) {
  AtomSliceCache& cache = AtomSliceCache::Global();
  cache.ResetStats();
  int loads = 0;
  auto loader = [&]() -> Result<Tensor> {
    ++loads;
    return Tensor::Zeros({4});
  };
  Result<std::shared_ptr<const Tensor>> first = cache.GetOrLoad("load_test:a", loader);
  ASSERT_TRUE(first.ok());
  Result<std::shared_ptr<const Tensor>> second = cache.GetOrLoad("load_test:a", loader);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Once every holder releases the slice, the entry dies and the next get reloads.
  first->reset();
  (*second).reset();
  Result<std::shared_ptr<const Tensor>> third = cache.GetOrLoad("load_test:a", loader);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(loads, 2);
}

// Property 5b: a failed load is reported but not cached — the next attempt retries.
TEST_F(LoadEnv, SliceCacheDoesNotCacheFailures) {
  AtomSliceCache& cache = AtomSliceCache::Global();
  int attempts = 0;
  auto flaky = [&]() -> Result<Tensor> {
    if (++attempts == 1) {
      return DataLossError("injected");
    }
    return Tensor::Zeros({2});
  };
  EXPECT_EQ(cache.GetOrLoad("load_test:flaky", flaky).status().code(),
            StatusCode::kDataLoss);
  Result<std::shared_ptr<const Tensor>> retried = cache.GetOrLoad("load_test:flaky", flaky);
  EXPECT_TRUE(retried.ok());
  EXPECT_EQ(attempts, 2);
}

// Property 5c: only gathers another rank of the target world makes use the cache. On a
// TP2·DP1 target only the replicated atoms are gathered identically by both ranks: those
// miss once and hit once, and the TP-sharded atoms read straight into the partition. A
// one-rank target shares nothing and never looks the cache up. Both stay bit-exact with
// the cache off.
TEST_F(LoadEnv, SliceCacheHoldsOnlyGathersAPeerShares) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);
  const uint64_t kStates = 3;
  for (const ParallelConfig& target :
       {ParallelConfig{2, 1, 1, 1, 0, 1}, ParallelConfig{1, 1, 1, 1, 0, 1}}) {
    SCOPED_TRACE(target.ToString());
    const RankLoadPlan plan = GenUcpMetadata(model, target, RankCoord{});
    uint64_t shared = 0;
    for (const AtomAssignment& a : plan.assignments) {
      if (target.tp == 2 && SameRuns(ShardRuns(a.target_spec, a.full_shape, 2, 0),
                                     ShardRuns(a.target_spec, a.full_shape, 2, 1))) {
        ++shared;
      }
    }
    ASSERT_EQ(shared > 0, target.tp == 2);
    ASSERT_LT(shared, plan.assignments.size());

    AtomSliceCache& cache = AtomSliceCache::Global();
    cache.ResetStats();
    TrainingRun cached(ConfigFor(model, target));
    LoadAll(cached, Sub("ucp"), {.num_threads = 2, .sliced = true, .use_slice_cache = true});
    EXPECT_EQ(cache.stats().misses, kStates * shared);
    EXPECT_EQ(cache.stats().hits, kStates * shared);

    TrainingRun uncached(ConfigFor(model, target));
    LoadAll(uncached, Sub("ucp"), {.num_threads = 2, .sliced = true, .use_slice_cache = false});
    for (int r = 0; r < cached.world_size(); ++r) {
      const ZeroOptimizer& a = cached.trainer(r).optimizer();
      const ZeroOptimizer& b = uncached.trainer(r).optimizer();
      EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
      EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
      EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState())) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace ucp
