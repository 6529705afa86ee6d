// The direct-FS checkpoint store — today's on-disk layout, unchanged, behind Store.
//
// Also home of the historical dir-based free functions (CommitCheckpointTag,
// GcCheckpoints, ...): they are thin wrappers over a LocalStore on the same directory, so
// every pre-Store caller keeps its exact signature and byte-for-byte behavior while the
// save/load/GC internals run through the Store interface. ucp_serverd hosts a LocalStore
// as its backing root, which is how "local and remote are one code path" bottoms out.

#ifndef UCP_SRC_STORE_LOCAL_STORE_H_
#define UCP_SRC_STORE_LOCAL_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/store/chunk_index.h"
#include "src/store/store.h"

namespace ucp {

class LocalStore final : public Store {
 public:
  explicit LocalStore(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  std::string Describe() const override { return "dir:" + root_; }
  std::string CacheKey(const std::string& rel) const override;

  Result<std::unique_ptr<ByteSource>> OpenRead(const std::string& rel) override;
  Result<std::string> ReadSmallFile(const std::string& rel) override;
  Result<bool> Exists(const std::string& rel) override;
  Result<std::vector<std::string>> List(const std::string& rel) override;
  Result<std::vector<std::string>> ListTags(const std::string& job) override;

  Result<std::unique_ptr<StoreWriter>> OpenTagForWrite(const std::string& tag) override;
  Status ResetTagStaging(const std::string& tag) override;
  Status CommitTag(const std::string& tag, const std::string& meta_json) override;
  Status AbortTag(const std::string& tag) override;

  Status DeleteTag(const std::string& tag) override;
  Result<GcReport> Gc(const std::string& job, int keep_last, bool dry_run) override;
  Result<int> SweepStagingDebris(const std::string& job) override;

  // Grace window Gc's chunk sweep quarantines young unreferenced objects for (see
  // ChunkIndex::Sweep). The default is safe for any topology — chunk pins are per-process
  // and another process may be mid-save against this root. Set 0 only when this process
  // provably holds every pin for the root (the daemon does; so do convergence tests).
  void set_chunk_sweep_grace_seconds(int64_t seconds) {
    chunk_sweep_grace_seconds_ = seconds;
  }

 private:
  std::string root_;
  int64_t chunk_sweep_grace_seconds_ = kChunkSweepGraceSeconds;
};

// ---- Dir-based convenience API (the historical checkpoint free functions) ----------------

// The commit sequence shared by the synchronous save and the async flusher (see
// Store::CommitTag). Single-caller (rank 0 / the flusher); `staging` must hold every shard.
Status CommitCheckpointTag(const std::string& dir, const std::string& tag,
                           const CheckpointMeta& meta);

// Removes stale `<tag>.staging` / `<tag>.ucp.staging` directories belonging to `job`'s
// namespace (debris of crashed or interrupted saves/conversions; never trusted by any
// reader). Returns the number removed. Call from one process only, with no save in flight
// for that job — other jobs sharing the store may keep flushing: their staging dirs are
// never touched (sweeping a concurrent job's in-flight staging would fail its commit
// rename and silently lose its checkpoint).
Result<int> CleanStagingDebris(const std::string& dir, const std::string& job = "");

// Reads the job's latest pointer (<dir>/latest, or <dir>/latest.<job>). This pointer is
// advisory — it is written *after* the commit marker, so a crash can leave it one save
// behind, and fsck quarantine can orphan it. Resume paths must use FindLatestValidTag
// instead; keep ReadLatestTag for diagnostics and for retention's "never delete what
// latest names" guard.
Result<std::string> ReadLatestTag(const std::string& dir, const std::string& job = "");

// True when the tag's `complete` commit marker exists (the save finished).
bool IsTagComplete(const std::string& dir, const std::string& tag);

// Newest committed tag in `job`'s namespace whose metadata parses — the tag a resume
// should trust. Incomplete or damaged-meta tags are skipped; kNotFound when no valid tag
// exists.
Result<std::string> FindLatestValidTag(const std::string& dir, const std::string& job = "");

// Fails with kDataLoss on a tag whose save never committed (missing `complete` marker).
Result<CheckpointMeta> ReadCheckpointMeta(const std::string& dir, const std::string& tag);

// All checkpoint tags in `job`'s namespace under `dir`, ascending iteration order.
Result<std::vector<std::string>> ListCheckpointTags(const std::string& dir,
                                                    const std::string& job = "");

// Every checkpoint tag under `dir` across all job namespaces (ascending by job id then
// iteration). For store-wide sweeps — fsck, tools — never for resume or retention, which
// must stay namespace-scoped.
Result<std::vector<std::string>> ListAllCheckpointTags(const std::string& dir);

// The retention policy (`ucp_tool gc`, AsyncCheckpointOptions.keep_last): keeps the newest
// `keep_last` (>= 1) tags. Only *committed* tags count toward the keep budget, and
// uncommitted tags and `.staging` debris are never touched — those belong to crashed-save
// recovery (fsck / the next save), and a tag mid-commit by a concurrent flusher must not
// be swept. Scoped to `job`'s namespace: tags and the `latest` guard of
// other jobs sharing the store are invisible to it. Never deletes the tag the job's
// `latest` names, nor the newest tag whose metadata still reads back — when every tag in
// the keep window is damaged, that older tag is the job's only resume point and outlives
// the window. Call from one process per job.
Result<GcReport> GcCheckpoints(const std::string& dir, int keep_last, bool dry_run = false,
                               const std::string& job = "");

}  // namespace ucp

#endif  // UCP_SRC_STORE_LOCAL_STORE_H_
