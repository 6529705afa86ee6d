// Incremental checkpoint tests: dirty-chunk tracking, the content-addressed chunk index,
// and per-chunk compression on the async flush path, as properties:
//
//  1. Round trip: incremental async saves resume bit-exactly on both backends (LocalStore
//     and an in-process ucp_serverd), and a warm save of unchanged state writes <= 30% of
//     the cold save's physical bytes (in practice ~0: every chunk dedups).
//  2. Sliced loads over an incremental tag are bit-exact against the same state saved as a
//     full checkpoint, across a {TP1/2/4}x{PP1/2}x{DP1/2} sweep, for tags written through
//     either backend.
//  3. A forged chunk object (self-consistent header, wrong content for its digest) is
//     caught by the existing CRC verification on read — typed kDataLoss, localized to the
//     files referencing it.
//  4. A truncated or bit-rotted chunk manifest fails tag resolution typed (kDataLoss) —
//     never a silent fallback to stale or partial data.
//  5. A dangling chunk reference (object deleted out from under a manifest) fails reads
//     typed, is reported by deep validation and fsck, and violates soak invariant I6.
//  6. Bit rot in a chunk shared by two tags damages exactly the referencing files of both
//     tags — detected by deep validation on each.
//  7. A flusher killed mid-flush (fail-stop on a chunk write) never publishes the tag;
//     resume lands on the previous commit and the next save heals the store.
//  8. GC refcounts: Gc sweeps chunks only the removed tags referenced, keeps every chunk
//     live tags reference (I6), and after DeleteTag of all referers plus a sweep the chunk
//     directory is empty (I7).
//  9. Compression: compressible chunks store smaller and round trip bit-exactly;
//     incompressible chunks take the raw-codec bailout; an engine with compression on
//     still resumes bit-exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ckpt/async/engine.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/crc32.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/soak/invariants.h"
#include "src/store/chunk_index.h"
#include "src/store/chunk_manifest.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/tensor/chunk_digest.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/loader.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  return cfg;
}

AsyncCheckpointOptions IncrementalOptions(bool compress = false) {
  AsyncCheckpointOptions options;
  options.incremental = true;
  options.compress = compress;
  return options;
}

// Every chunk object path under `dir`'s content-addressed index.
std::vector<std::string> ChunkObjectPaths(const std::string& dir) {
  std::vector<std::string> paths;
  const std::string root = PathJoin(dir, kChunkDirName);
  Result<std::vector<std::string>> fans = ListDir(root);
  if (!fans.ok()) {
    return paths;
  }
  for (const std::string& fan : *fans) {
    Result<std::vector<std::string>> objects = ListDir(PathJoin(root, fan));
    if (!objects.ok()) {
      continue;
    }
    for (const std::string& object : *objects) {
      paths.push_back(PathJoin(PathJoin(root, fan), object));
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Path of a chunk object the tag's optimizer shard references — the shard every resume
// actually reads (a model_states chunk would be caught by validation but not by a native
// same-strategy resume, which restores weights from the fp32 master).
std::string OptimChunkObjectPath(const std::string& dir, const std::string& tag) {
  Result<std::optional<ChunkManifest>> manifest = ReadTagChunkManifest(PathJoin(dir, tag));
  UCP_CHECK(manifest.ok() && manifest->has_value());
  for (const ChunkManifestEntry& entry : (*manifest)->files) {
    if (entry.name.find("optim_states") != std::string::npos && !entry.chunks.empty()) {
      return PathJoin(dir, ChunkObjectRel(entry.chunks.front()));
    }
  }
  UCP_CHECK(false) << "no optim_states entry in " << tag << "'s manifest";
  return "";
}

bool HasProblemContaining(const ValidationReport& report, const std::string& needle) {
  for (const std::string& problem : report.problems) {
    if (problem.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Both-backend fixture: "local" drives a LocalStore directly; "remote" stands up an
// in-process ucp_serverd over the same directory and drives it through RemoteStore (so
// dedup rides CHUNK_QUERY/CHUNK_PUT over the wire).
class IncrementalBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = *MakeTempDir("ucp_incr");
    if (remote()) {
      StoreServerOptions options;
      options.root = dir_;
      options.listen = "unix:" + dir_ + ".sock";
      Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(std::move(options));
      ASSERT_TRUE(started.ok()) << started.status();
      server_ = std::move(*started);
      Result<std::shared_ptr<Store>> opened = OpenStore(server_->endpoint());
      ASSERT_TRUE(opened.ok()) << opened.status();
      store_ = *opened;
    } else {
      store_ = std::make_shared<LocalStore>(dir_);
    }
  }

  void TearDown() override {
    store_.reset();
    if (server_ != nullptr) {
      server_->Shutdown();
      server_.reset();
    }
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  bool remote() const { return std::string(GetParam()) == std::string("remote"); }

  static void SaveAsyncAll(TrainingRun& run, AsyncCheckpointEngine& engine,
                           int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = engine.SaveAsync(t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    Status waited = engine.WaitForIteration(iteration);
    UCP_CHECK(waited.ok()) << waited.ToString();
  }

  std::string dir_;
  std::unique_ptr<StoreServer> server_;
  std::shared_ptr<Store> store_;
};

INSTANTIATE_TEST_SUITE_P(Backends, IncrementalBackendTest,
                         ::testing::Values("local", "remote"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

// Property 1a: incremental saves commit tags a fresh world resumes from bit-exactly, the
// tag holds a manifest instead of physical shard files, and deep validation passes.
TEST_P(IncrementalBackendTest, RoundTripResumeBitExact) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun ref(cfg);
  std::vector<double> ref_losses = ref.Train(1, 6);

  {
    TrainingRun run(cfg);
    AsyncCheckpointEngine engine(store_, run.world_size(), IncrementalOptions());
    run.Train(1, 4, [&](RankTrainer& t, int64_t it) {
      if (it % 2 == 0) {
        Status s = engine.SaveAsync(t, it);
        UCP_CHECK(s.ok()) << s.ToString();
      }
    });
    ASSERT_TRUE(engine.WaitAll().ok());
    AsyncSaveStats stats = engine.stats();
    EXPECT_EQ(stats.commits, 2);
    EXPECT_EQ(stats.failures, 0);
    EXPECT_GT(stats.bytes_written, 0);
    EXPECT_GT(stats.chunks_flushed, 0);
  }

  // The tag is manifest-backed: no physical shard files, and the manifest parses.
  EXPECT_TRUE(FileExists(PathJoin(PathJoin(dir_, "global_step4"), kChunkManifestName)));
  EXPECT_FALSE(
      FileExists(PathJoin(PathJoin(dir_, "global_step4"), OptimStatesFileName(0, 0, 0, 0))));
  Result<std::optional<ChunkManifest>> manifest =
      ReadTagChunkManifest(PathJoin(dir_, "global_step4"));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_TRUE(manifest->has_value());
  EXPECT_EQ((*manifest)->parent, "global_step2");
  EXPECT_FALSE((*manifest)->files.empty());

  Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step4");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->ToString();

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(dir_, t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK_EQ(r->iteration, 4);
  });
  std::vector<double> resumed_losses = resumed.Train(5, 6);
  ASSERT_EQ(resumed_losses.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed_losses[0], ref_losses[4]);
  EXPECT_DOUBLE_EQ(resumed_losses[1], ref_losses[5]);
}

// Property 1b (the acceptance bound): a warm save of unchanged state flushes at most 30%
// of the cold save's physical bytes — in practice zero chunk objects, all dedup hits.
TEST_P(IncrementalBackendTest, WarmSaveWritesUnder30PercentOfCold) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);

  AsyncCheckpointEngine engine(store_, run.world_size(), IncrementalOptions());
  SaveAsyncAll(run, engine, 2);
  const AsyncSaveStats cold = engine.stats();
  ASSERT_GT(cold.bytes_written, 0);

  // Same state, next tag: every chunk is already in the index.
  SaveAsyncAll(run, engine, 3);
  const AsyncSaveStats warm = engine.stats();
  ASSERT_TRUE(engine.WaitAll().ok());

  const int64_t warm_written = warm.bytes_written - cold.bytes_written;
  const int64_t warm_deduped = warm.chunks_deduped - cold.chunks_deduped;
  EXPECT_LE(warm_written, cold.bytes_written * 3 / 10)
      << "warm save flushed " << warm_written << " of " << cold.bytes_written;
  EXPECT_GT(warm_deduped, 0);
  EXPECT_EQ(warm.chunks_flushed, cold.chunks_flushed);  // no new chunk objects

  // Both tags resolve and deep-verify even though they share every chunk.
  for (const char* tag : {"global_step2", "global_step3"}) {
    Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, tag);
    ASSERT_TRUE(report.ok()) << tag << ": " << report.status();
    EXPECT_TRUE(report->ok()) << tag << ": " << report->ToString();
  }
}

// Property 2: sliced loads over an incremental tag are bit-exact against the identical
// state saved as a full checkpoint, across the reconfiguration sweep. The incremental tag
// is written through this backend; conversion and loading read the shared directory.
TEST_P(IncrementalBackendTest, SlicedLoadSweepBitExactVsFullSave) {
  ModelConfig model = TinyGpt();
  TrainerConfig source_config = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun source(source_config);
  source.Train(1, 3);

  const std::string full_dir = *MakeTempDir("ucp_incr_full");
  source.Run([&](RankTrainer& t) {
    Status s = SaveDistributedCheckpoint(full_dir, t, 3);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  {
    AsyncCheckpointEngine engine(store_, source.world_size(), IncrementalOptions());
    SaveAsyncAll(source, engine, 3);
    ASSERT_TRUE(engine.WaitAll().ok());
  }

  Result<ConvertStats> full_converted =
      ConvertToUcp(full_dir, "global_step3", PathJoin(full_dir, "ucp"), {.num_threads = 2});
  ASSERT_TRUE(full_converted.ok()) << full_converted.status();
  // Converting the incremental tag reads every shard through the manifest.
  Result<ConvertStats> inc_converted =
      ConvertToUcp(dir_, "global_step3", PathJoin(dir_, "ucp"), {.num_threads = 2});
  ASSERT_TRUE(inc_converted.ok()) << inc_converted.status();
  EXPECT_EQ(inc_converted->atoms_written, full_converted->atoms_written);

  for (int tp : {1, 2, 4}) {
    for (int pp : {1, 2}) {
      for (int dp : {1, 2}) {
        ParallelConfig target{tp, pp, dp, 1, 1, 1};
        SCOPED_TRACE(target.ToString());
        TrainerConfig config;
        config.model = model;
        config.strategy = target;
        config.global_batch = 8;

        UcpLoadOptions load_options;
        load_options.num_threads = 2;
        load_options.sliced = true;

        TrainingRun from_full(config);
        from_full.Run([&](RankTrainer& t) {
          Status s = LoadUcpCheckpoint(PathJoin(full_dir, "ucp"), t, load_options);
          UCP_CHECK(s.ok()) << s.ToString();
        });
        TrainingRun from_inc(config);
        from_inc.Run([&](RankTrainer& t) {
          Status s = LoadUcpCheckpoint(PathJoin(dir_, "ucp"), t, load_options);
          UCP_CHECK(s.ok()) << s.ToString();
        });

        for (int r = 0; r < from_full.world_size(); ++r) {
          const ZeroOptimizer& a = from_inc.trainer(r).optimizer();
          const ZeroOptimizer& b = from_full.trainer(r).optimizer();
          EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
          EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
          EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState()))
              << "rank " << r;
          EXPECT_EQ(a.steps_taken(), b.steps_taken()) << "rank " << r;
        }
      }
    }
  }
  ASSERT_TRUE(RemoveAll(full_dir).ok());
}

// Local-only corruption / fault / GC scenarios. The store directory is manipulated
// directly; every reader below goes through the manifest resolution path.
class IncrementalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_incr_fault"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  // Trains two iterations and commits incremental tags at 2 (cold) and, when asked, a
  // warm tag 3 sharing every chunk with tag 2.
  void SaveIncremental(bool warm_second_tag, bool compress = false) {
    TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
    TrainingRun run(cfg);
    run.Train(1, 2);
    AsyncCheckpointEngine engine(dir_, run.world_size(), IncrementalOptions(compress));
    run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 2).ok()); });
    ASSERT_TRUE(engine.WaitForIteration(2).ok());
    if (warm_second_tag) {
      run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 3).ok()); });
      ASSERT_TRUE(engine.WaitForIteration(3).ok());
    }
    ASSERT_TRUE(engine.WaitAll().ok());
  }

  std::string dir_;
};

// Property 3: a forged chunk — header self-consistent, content not matching the digest it
// is stored under — passes the chunk object's own CRC but is caught by the whole-file CRC
// layer on read, as typed kDataLoss localized to the referencing files.
TEST_F(IncrementalFaultTest, ForgedChunkObjectCaughtByReadCrc) {
  SaveIncremental(/*warm_second_tag=*/false);
  const std::string victim = OptimChunkObjectPath(dir_, "global_step2");

  // Forge: decode the object, flip its payload, re-encode with a *correct* header CRC for
  // the forged bytes. The object now verifies in isolation but lies about its digest.
  Result<std::string> encoded = ReadFileToString(victim);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  Result<std::vector<uint8_t>> raw =
      DecodeChunkObject(encoded->data(), encoded->size(), victim);
  ASSERT_TRUE(raw.ok()) << raw.status();
  std::vector<uint8_t> forged = *raw;
  for (size_t i = 0; i < forged.size(); ++i) {
    forged[i] ^= 0xA5;
  }
  std::vector<uint8_t> reencoded =
      EncodeChunkObject(ChunkCodec::kRaw, static_cast<uint32_t>(forged.size()),
                        Crc32(forged.data(), forged.size()), forged.data(), forged.size());
  ASSERT_TRUE(WriteFileAtomic(victim, reencoded.data(), reencoded.size()).ok());

  // The chunk index itself accepts the forged object (its header is consistent)...
  Result<std::optional<ChunkManifest>> manifest =
      ReadTagChunkManifest(PathJoin(dir_, "global_step2"));
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->has_value());

  // ...but deep validation catches it: the materialized file no longer matches its CRC.
  Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step2");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->ok());
  // Localized: only files referencing the forged chunk fail; the rest still verify.
  EXPECT_LT(report->problems.size(), static_cast<size_t>((*manifest)->files.size()) + 2);

  // The load path fails typed rather than restoring forged state.
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElasticFromTag(dir_, "global_step2", t);
    UCP_CHECK(!r.ok());
    UCP_CHECK(r.status().code() == StatusCode::kDataLoss) << r.status().ToString();
  });
}

// Property 4: manifest damage is typed, never a silent fallback.
TEST_F(IncrementalFaultTest, TruncatedOrBitRottedManifestFailsTyped) {
  SaveIncremental(/*warm_second_tag=*/false);
  const std::string tag_dir = PathJoin(dir_, "global_step2");
  const std::string manifest_path = PathJoin(tag_dir, kChunkManifestName);
  Result<std::string> original = ReadFileToString(manifest_path);
  ASSERT_TRUE(original.ok()) << original.status();

  auto expect_typed_failure = [&](const std::string& label) {
    SCOPED_TRACE(label);
    Result<std::optional<ChunkManifest>> manifest = ReadTagChunkManifest(tag_dir);
    EXPECT_EQ(manifest.status().code(), StatusCode::kDataLoss);
    // Shard resolution fails typed too — no silent fallback to "file not found".
    Result<std::unique_ptr<ByteSource>> source =
        OpenTagShardSource(tag_dir, OptimStatesFileName(0, 0, 0, 0));
    EXPECT_EQ(source.status().code(), StatusCode::kDataLoss);
    Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step2");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->ok());
    EXPECT_TRUE(HasProblemContaining(*report, kChunkManifestName)) << report->ToString();
  };

  ASSERT_TRUE(WriteFileAtomic(manifest_path, original->substr(0, original->size() / 2)).ok());
  expect_typed_failure("truncated");

  std::string rotted = *original;
  rotted[rotted.size() - 2] ^= 0x01;  // flip a bit inside the JSON body
  ASSERT_TRUE(WriteFileAtomic(manifest_path, rotted).ok());
  expect_typed_failure("bit-rotted");

  // Restoring the manifest restores the tag: damage was never masked by a stale copy.
  ASSERT_TRUE(WriteFileAtomic(manifest_path, *original).ok());
  Result<ValidationReport> healed = ValidateNativeCheckpoint(dir_, "global_step2");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(healed->ok()) << healed->ToString();
}

// Property 5: a dangling reference fails reads typed, is visible to validation and fsck,
// and violates soak invariant I6.
TEST_F(IncrementalFaultTest, DanglingChunkReferenceFailsTypedAndViolatesI6) {
  SaveIncremental(/*warm_second_tag=*/false);
  ASSERT_TRUE(RemoveAll(OptimChunkObjectPath(dir_, "global_step2")).ok());

  Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step2");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->ok());

  Result<FsckReport> fsck = Fsck(dir_, /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_EQ(fsck->ExitCode(/*quarantine=*/false), 1);

  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElasticFromTag(dir_, "global_step2", t);
    UCP_CHECK(!r.ok());
    UCP_CHECK(r.status().code() == StatusCode::kDataLoss) << r.status().ToString();
  });

  SoakInvariantContext context;
  context.dir = dir_;
  context.max_trained_iteration = 100;
  context.corruptions_fired_total = 100;  // excuse I3; I6 has no corruption excuse
  SoakInvariantResult checked = CheckSoakInvariants(context);
  bool found_i6 = false;
  for (const std::string& violation : checked.violations) {
    found_i6 = found_i6 || violation.rfind("I6:", 0) == 0;
  }
  EXPECT_TRUE(found_i6) << "expected an I6 violation";
}

// Property 6: bit rot in a chunk shared by two tags is caught by deep validation of both.
TEST_F(IncrementalFaultTest, SharedChunkBitRotDamagesBothReferencingTags) {
  SaveIncremental(/*warm_second_tag=*/true);
  std::vector<std::string> objects = ChunkObjectPaths(dir_);
  ASSERT_FALSE(objects.empty());
  const std::string& victim = objects.front();
  Result<std::string> bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GT(bytes->size(), kChunkHeaderBytes);
  std::string rotted = *bytes;
  rotted[rotted.size() - 1] ^= 0x40;  // payload bit flip; header left intact
  ASSERT_TRUE(WriteFileAtomic(victim, rotted).ok());

  for (const char* tag : {"global_step2", "global_step3"}) {
    Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, tag);
    ASSERT_TRUE(report.ok()) << tag << ": " << report.status();
    EXPECT_FALSE(report->ok()) << tag << " should fail deep validation";
  }
}

// Property 7: fail-stop on a chunk-object write mid-flush never publishes the tag; resume
// lands on the previous commit and the next save heals the store.
TEST_F(IncrementalFaultTest, KillMidFlushLeavesStoreResumable) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  AsyncCheckpointEngine engine(dir_, run.world_size(), IncrementalOptions());
  run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 2).ok()); });
  ASSERT_TRUE(engine.WaitForIteration(2).ok());

  run.Train(3, 4);
  {
    ScopedFault fault({FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "chunks/", 0});
    run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 4).ok()); });
    EXPECT_FALSE(engine.WaitForIteration(4).ok());
    EXPECT_TRUE(FaultFired());
  }
  EXPECT_EQ(engine.stats().failures, 1);
  EXPECT_FALSE(IsTagComplete(dir_, "global_step4"));
  Result<std::string> valid = FindLatestValidTag(dir_);
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ(*valid, "global_step2");

  // The next save of the same state succeeds and deep-verifies.
  run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 5).ok()); });
  ASSERT_TRUE(engine.WaitForIteration(5).ok());
  (void)engine.WaitAll();  // reports the injected failure (sticky by design), drains rest
  Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step5");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->ToString();
}

// Property 8: GC never drops a chunk a surviving tag references (I6), and refcounts
// converge — after deleting every referer and sweeping, the chunk directory is empty (I7).
TEST_F(IncrementalFaultTest, GcKeepsLiveChunksAndRefcountsConverge) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  LocalStore store(dir_);
  AsyncCheckpointEngine engine(dir_, run.world_size(), IncrementalOptions());
  run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 2).ok()); });
  ASSERT_TRUE(engine.WaitForIteration(2).ok());
  run.Train(3, 4);  // mutate state so tag 4 owns fresh chunks
  run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 4).ok()); });
  ASSERT_TRUE(engine.WaitForIteration(4).ok());
  run.Run([&](RankTrainer& t) { UCP_CHECK(engine.SaveAsync(t, 5).ok()); });  // warm twin of 4
  ASSERT_TRUE(engine.WaitForIteration(5).ok());
  ASSERT_TRUE(engine.WaitAll().ok());
  ASSERT_FALSE(ChunkObjectPaths(dir_).empty());

  // Drop tag 2: its exclusive chunks are swept; everything tags 4/5 share survives.
  Result<GcReport> gc = store.Gc(/*job=*/"", /*keep_last=*/2, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  ASSERT_EQ(gc->removed.size(), 1u);
  EXPECT_EQ(gc->removed.front(), "global_step2");
  for (const char* tag : {"global_step4", "global_step5"}) {
    Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, tag);
    ASSERT_TRUE(report.ok()) << tag << ": " << report.status();
    EXPECT_TRUE(report->ok()) << tag << ": " << report->ToString();  // I6 held through GC
  }

  // Delete every referer, sweep, and the index must be empty.
  ASSERT_TRUE(store.DeleteTag("global_step4").ok());
  ASSERT_TRUE(store.DeleteTag("global_step5").ok());
  // Grace 0: this process holds every pin for the root, so convergence is immediate.
  Result<ChunkIndex::SweepReport> swept =
      ChunkIndex::ForRoot(dir_)->Sweep(/*dry_run=*/false, /*grace_seconds=*/0);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_TRUE(ChunkObjectPaths(dir_).empty());

  SoakInvariantContext context;
  context.dir = dir_;
  context.max_trained_iteration = 100;
  context.expect_no_orphans = true;
  SoakInvariantResult checked = CheckSoakInvariants(context);
  EXPECT_EQ(checked.orphan_chunks, 0);
  for (const std::string& violation : checked.violations) {
    EXPECT_TRUE(violation.rfind("I7:", 0) != 0) << violation;
  }
}

// Property 9a: the chunk index's compression path — compressible chunks store smaller and
// round trip bit-exactly; incompressible chunks bail out to the raw codec.
TEST_F(IncrementalFaultTest, ChunkCompressionRoundTripAndBailout) {
  std::shared_ptr<ChunkIndex> index = ChunkIndex::ForRoot(dir_);

  std::vector<uint8_t> compressible(64 * 1024, 0);
  for (size_t i = 0; i < compressible.size(); i += 128) {
    compressible[i] = static_cast<uint8_t>(i / 128);
  }
  const uint64_t comp_digest = ChunkDigest(compressible.data(), compressible.size());
  ChunkedWriteStats stats;
  ASSERT_TRUE(index
                  ->Put(comp_digest, compressible.data(), compressible.size(),
                        Crc32(compressible.data(), compressible.size()),
                        /*try_compress=*/true, &stats)
                  .ok());
  EXPECT_EQ(stats.chunks_compressed, 1u);
  Result<ChunkIndex::ChunkStat> stat = index->StatChunk(comp_digest);
  ASSERT_TRUE(stat.ok()) << stat.status();
  ASSERT_TRUE(stat->exists);
  EXPECT_EQ(stat->codec, ChunkCodec::kLz);
  EXPECT_LT(stat->stored_size, compressible.size());
  Result<std::vector<uint8_t>> back = index->ReadChunk(comp_digest);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == compressible);

  // Pseudo-random bytes: the 1/16 savings floor fails, the raw codec is kept.
  std::vector<uint8_t> incompressible(64 * 1024);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : incompressible) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  const uint64_t raw_digest = ChunkDigest(incompressible.data(), incompressible.size());
  ASSERT_TRUE(index
                  ->Put(raw_digest, incompressible.data(), incompressible.size(),
                        Crc32(incompressible.data(), incompressible.size()),
                        /*try_compress=*/true, &stats)
                  .ok());
  Result<ChunkIndex::ChunkStat> raw_stat = index->StatChunk(raw_digest);
  ASSERT_TRUE(raw_stat.ok()) << raw_stat.status();
  ASSERT_TRUE(raw_stat->exists);
  EXPECT_EQ(raw_stat->codec, ChunkCodec::kRaw);
  Result<std::vector<uint8_t>> raw_back = index->ReadChunk(raw_digest);
  ASSERT_TRUE(raw_back.ok()) << raw_back.status();
  EXPECT_TRUE(*raw_back == incompressible);
}

// Property 9b: an engine with compression enabled still round-trips bit-exactly.
TEST_F(IncrementalFaultTest, CompressedIncrementalSaveResumesBitExact) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun ref(cfg);
  std::vector<double> ref_losses = ref.Train(1, 4);

  {
    TrainingRun run(cfg);
    AsyncCheckpointEngine engine(dir_, run.world_size(),
                                 IncrementalOptions(/*compress=*/true));
    run.Train(1, 2, [&](RankTrainer& t, int64_t it) {
      if (it == 2) {
        UCP_CHECK(engine.SaveAsync(t, it).ok());
      }
    });
    ASSERT_TRUE(engine.WaitAll().ok());
  }
  Result<ValidationReport> report = ValidateNativeCheckpoint(dir_, "global_step2");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->ToString();

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(dir_, t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK_EQ(r->iteration, 2);
  });
  std::vector<double> resumed_losses = resumed.Train(3, 4);
  ASSERT_EQ(resumed_losses.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed_losses[0], ref_losses[2]);
  EXPECT_DOUBLE_EQ(resumed_losses[1], ref_losses[3]);
}

// A self-consistent chunk object whose content does not hash to its claimed digest must
// be rejected at publish time (kInvalidArgument), before any tag can dedup against it —
// not discovered as kDataLoss at load time when the checkpoint is already lost.
TEST_F(IncrementalFaultTest, PutEncodedRejectsForgedDigest) {
  std::shared_ptr<ChunkIndex> index = ChunkIndex::ForRoot(dir_);
  std::vector<uint8_t> a(64 * 1024, 0x11);
  std::vector<uint8_t> b(64 * 1024, 0x22);
  const uint64_t digest_a = ChunkDigest(a.data(), a.size());

  std::vector<uint8_t> forged =
      EncodeChunkObject(ChunkCodec::kRaw, static_cast<uint32_t>(b.size()),
                        Crc32(b.data(), b.size()), b.data(), b.size());
  Status put = index->PutEncoded(digest_a, forged.data(), forged.size());
  EXPECT_EQ(put.code(), StatusCode::kInvalidArgument) << put.ToString();
  EXPECT_FALSE(FileExists(PathJoin(dir_, ChunkObjectRel(digest_a))));

  // The honest object under the same digest still lands (and re-putting it dedups).
  std::vector<uint8_t> honest =
      EncodeChunkObject(ChunkCodec::kRaw, static_cast<uint32_t>(a.size()),
                        Crc32(a.data(), a.size()), a.data(), a.size());
  ASSERT_TRUE(index->PutEncoded(digest_a, honest.data(), honest.size()).ok());
  EXPECT_TRUE(FileExists(PathJoin(dir_, ChunkObjectRel(digest_a))));
  ASSERT_TRUE(index->PutEncoded(digest_a, honest.data(), honest.size()).ok());
}

// A 64-bit digest collision (two different contents, one address) must fail the save
// typed instead of silently substituting one chunk's bytes for the other's.
TEST_F(IncrementalFaultTest, DigestCollisionRefusedNotAliased) {
  std::shared_ptr<ChunkIndex> index = ChunkIndex::ForRoot(dir_);
  std::vector<uint8_t> a(64 * 1024, 0x11);
  std::vector<uint8_t> b(64 * 1024, 0x22);
  const uint64_t digest_a = ChunkDigest(a.data(), a.size());
  ASSERT_TRUE(
      index->Put(digest_a, a.data(), a.size(), Crc32(a.data(), a.size()), false, nullptr).ok());

  // Same content under the same digest: a verified dedup hit.
  ASSERT_TRUE(
      index->Put(digest_a, a.data(), a.size(), Crc32(a.data(), a.size()), false, nullptr).ok());
  // Different content under the same digest (a simulated collision): refused.
  Status collided =
      index->Put(digest_a, b.data(), b.size(), Crc32(b.data(), b.size()), false, nullptr);
  EXPECT_EQ(collided.code(), StatusCode::kFailedPrecondition) << collided.ToString();

  // The presence query is content-verified too: the colliding probe reports "absent",
  // routing its writer into the refusing Put above instead of a silent by-reference skip.
  std::vector<ChunkIndex::ChunkProbe> probes = {
      {digest_a, static_cast<uint32_t>(a.size()), Crc32(a.data(), a.size())},
      {digest_a, static_cast<uint32_t>(b.size()), Crc32(b.data(), b.size())},
  };
  std::vector<uint8_t> present = index->PinAndQuery("global_step9", probes);
  ASSERT_EQ(present.size(), 2u);
  EXPECT_EQ(present[0], 1);
  EXPECT_EQ(present[1], 0);
  index->ReleaseTagPins("global_step9");
}

// Chunk pins are per-process, so a sweep must quarantine young unreferenced objects:
// they may be dirty chunks of another process's in-flight save whose manifest has not
// landed yet. Grace 0 (single-process ownership) reclaims immediately.
TEST_F(IncrementalFaultTest, SweepQuarantinesYoungUnreferencedChunks) {
  std::shared_ptr<ChunkIndex> index = ChunkIndex::ForRoot(dir_);
  std::vector<uint8_t> orphan(1024, 0x5A);
  const uint64_t digest = ChunkDigest(orphan.data(), orphan.size());
  ASSERT_TRUE(index->Put(digest, orphan.data(), orphan.size(),
                         Crc32(orphan.data(), orphan.size()), false, nullptr).ok());
  const std::string path = PathJoin(dir_, ChunkObjectRel(digest));
  ASSERT_TRUE(FileExists(path));

  Result<ChunkIndex::SweepReport> kept = index->Sweep(/*dry_run=*/false);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->swept, 0u);
  EXPECT_EQ(kept->skipped_young, 1u);
  EXPECT_TRUE(FileExists(path));

  Result<ChunkIndex::SweepReport> swept =
      index->Sweep(/*dry_run=*/false, /*grace_seconds=*/0);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(swept->swept, 1u);
  EXPECT_FALSE(FileExists(path));
}

// A corrupt or hostile manifest declaring chunk_bytes >= 2^32 must fail parsing typed —
// downstream consumers index chunks with arithmetic that is only safe below that.
TEST(ChunkManifestBoundsTest, RejectsOutOfRangeChunkBytes) {
  ChunkManifest manifest;
  manifest.chunk_bytes = 1ull << 32;  // would truncate to 0 in a 32-bit consumer
  Result<ChunkManifest> parsed = ParseChunkManifest(SerializeChunkManifest(manifest));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << parsed.status();

  manifest.chunk_bytes = kManifestChunkBytes;
  Result<ChunkManifest> ok = ParseChunkManifest(SerializeChunkManifest(manifest));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// CHUNK_QUERY pins are admission-controlled like staged bytes: a session over its budget
// is refused typed before anything is pinned, and commit/abort of the tag refunds it.
TEST(StoreServerChunkBudgetTest, BoundsPinnedChunksPerSession) {
  const std::string dir = *MakeTempDir("ucp_pin_budget");
  StoreServerOptions options;
  options.root = dir;
  options.listen = "unix:" + dir + ".sock";
  options.max_pinned_chunks = 4;
  Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(std::move(options));
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<StoreServer> server = std::move(*started);
  Result<std::shared_ptr<Store>> opened = OpenStore(server->endpoint());
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<Store> store = *opened;

  // Distinct per-chunk content so every write queries distinct digests.
  auto chunk_data = [](size_t chunks, uint8_t seed) {
    std::vector<uint8_t> data(chunks * kManifestChunkBytes);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(seed + i / kManifestChunkBytes + (i * 131) % 251);
    }
    return data;
  };
  auto write_chunked = [&](StoreWriter& writer, const std::string& rel,
                           const std::vector<uint8_t>& data) {
    std::vector<uint64_t> digests = ComputeChunkDigests(data.data(), data.size());
    return writer.WriteFileChunked(rel, data.data(), data.size(), digests,
                                   /*compress=*/false, /*inherited=*/0);
  };

  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok()) << writer.status();
  // 6 probes against a budget of 4: refused before any pin lands.
  std::vector<uint8_t> big = chunk_data(6, 0);
  Result<ChunkedWriteStats> over = write_chunked(**writer, "big.bin", big);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition) << over.status();
  // 2 probes fit...
  std::vector<uint8_t> small = chunk_data(2, 50);
  ASSERT_TRUE(write_chunked(**writer, "small.bin", small).ok());
  // ...but 3 more would hold 5 > 4.
  std::vector<uint8_t> more = chunk_data(3, 100);
  Result<ChunkedWriteStats> third = write_chunked(**writer, "more.bin", more);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition) << third.status();

  // Aborting the tag refunds the session's pin budget; the same write then fits.
  ASSERT_TRUE(store->AbortTag("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> retry = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(retry.ok()) << retry.status();
  ASSERT_TRUE(write_chunked(**retry, "more.bin", more).ok());

  store.reset();
  server->Shutdown();
  server.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace ucp
