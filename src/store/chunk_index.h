// The content-addressed chunk index: shared chunk-object storage under a store root.
//
// Incremental saves store shard payloads as chunk objects named by content digest, under
// `<root>/chunks/<hh>/<16-hex digest>` (hh = first two hex digits, a fanout directory).
// Identical chunks — across ranks, across tags, across jobs sharing the store — are
// stored exactly once. Each object wraps its payload in a small header:
//
//   u32 magic "UCK1" | u8 codec (0 = raw, 1 = lz) | u32 raw_size | u32 crc32(raw) | payload
//
// so a bit-rotted or forged chunk fails its CRC on read (kDataLoss, localized to the
// chunk), and compressed chunks decompress to a verifiable size before the CRC runs.
// Objects are written with WriteFileAtomic, so they participate in the calling thread's
// ScopedFsyncBatch exactly like whole shard files do — incremental saves get equal
// durability placement.
//
// Lifetime is mark-and-sweep, not persistent refcounts: Sweep() parses every tag and
// staging manifest under the root, marks referenced digests (plus in-memory pins) live,
// and deletes the rest. In-memory pins close the query/sweep race: PinAndQuery pins the
// digests it is asked about *before* answering "present", so a writer that decides to
// skip an already-stored chunk is guaranteed the sweep will not delete it before the
// manifest referencing it lands. Pins are released on CommitTag / AbortTag /
// ResetTagStaging (by which point the manifest — or nothing — references the chunks).
// One index instance exists per root per process (ForRoot), which covers every supported
// topology: direct-FS jobs in one process, or many clients behind one ucp_serverd.
//
// Pins are per-process, so a sweep running in a *different* process (`ucp_tool gc` on a
// live direct-FS root, or one of several direct-FS jobs sharing a root) cannot see the
// in-flight saves of its neighbours. Sweep therefore quarantines unreferenced objects
// younger than a grace window (mtime-based) instead of deleting them: dirty chunks
// written before their manifest lands survive any out-of-process sweep, and genuinely
// orphaned objects are reclaimed once they age past the window. Callers that provably
// hold every pin for the root in-process (the daemon, which is the sole accessor of the
// roots it serves; tests asserting convergence) may pass grace 0 for immediate reclaim.
//
// Soak invariants (checked by CheckSoakInvariants, documented in docs/incremental.md):
//   I6: every chunk referenced by a committed tag's manifest exists in the index.
//   I7: after DeleteTag of every referer and a Gc, no orphan chunk objects remain.

#ifndef UCP_SRC_STORE_CHUNK_INDEX_H_
#define UCP_SRC_STORE_CHUNK_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/fs.h"
#include "src/common/status.h"
#include "src/store/chunk_manifest.h"

namespace ucp {

// Directory under the store root holding chunk objects.
inline constexpr char kChunkDirName[] = "chunks";

// Default quarantine window for unreferenced chunk objects (see Sweep). One hour bounds
// the manifest-less window of any realistic save; the only cost of generosity is that
// orphan reclaim lags by one window.
inline constexpr int64_t kChunkSweepGraceSeconds = 3600;

inline constexpr uint32_t kChunkMagic = 0x314B4355;  // "UCK1", little-endian
inline constexpr size_t kChunkHeaderBytes = 13;      // magic + codec + raw_size + raw_crc

enum class ChunkCodec : uint8_t {
  kRaw = 0,
  kLz = 1,
};

struct ChunkObjectHeader {
  ChunkCodec codec = ChunkCodec::kRaw;
  uint32_t raw_size = 0;
  uint32_t raw_crc = 0;
};

// "chunks/<hh>/<16-hex>" — store-relative path of a digest's object.
std::string ChunkObjectRel(uint64_t digest);

// Header + payload bytes of one chunk object.
std::vector<uint8_t> EncodeChunkObject(ChunkCodec codec, uint32_t raw_size,
                                       uint32_t raw_crc, const void* stored,
                                       size_t stored_size);

// Parses (only) the header; kDataLoss on bad magic / short buffer / unknown codec.
Result<ChunkObjectHeader> ParseChunkObjectHeader(const void* data, size_t size);

// Decodes a whole chunk object to its raw bytes: parse header, decompress if needed,
// verify the raw CRC. Every failure is kDataLoss naming `context`.
Result<std::vector<uint8_t>> DecodeChunkObject(const void* data, size_t size,
                                               const std::string& context);

// Byte accounting of one writer's chunked traffic (surfaced through AsyncSaveStats and
// the fig11 incremental arm).
struct ChunkedWriteStats {
  uint64_t bytes_total = 0;       // logical bytes presented for writing
  uint64_t bytes_written = 0;     // physical bytes that actually hit the store
  uint64_t chunks_total = 0;
  uint64_t chunks_deduped = 0;    // already present in the index (incl. parent-inherited)
  uint64_t chunks_compressed = 0;

  void Add(const ChunkedWriteStats& other) {
    bytes_total += other.bytes_total;
    bytes_written += other.bytes_written;
    chunks_total += other.chunks_total;
    chunks_deduped += other.chunks_deduped;
    chunks_compressed += other.chunks_compressed;
  }
};

class ChunkIndex {
 public:
  // The process-wide index for a store root (canonicalized); created on first use.
  static std::shared_ptr<ChunkIndex> ForRoot(const std::string& root);

  const std::string& root() const { return root_; }

  // What a writer knows about a chunk it is about to store: its content digest plus the
  // raw size and CRC32 of the bytes. Carrying size+crc lets every dedup decision verify
  // that the already-stored object really holds the same content — an accidental 64-bit
  // digest collision (or a forged object) answers "absent"/fails typed instead of
  // silently aliasing two different chunks.
  struct ChunkProbe {
    uint64_t digest = 0;
    uint32_t raw_size = 0;
    uint32_t raw_crc = 0;
  };

  // Pins each probe's digest under `tag` and returns one presence byte (0/1) per probe.
  // The pin happens before the existence answer, so "present" stays true until
  // ReleaseTagPins. "Present" additionally requires the stored object's header to match
  // the probe's raw_size and raw_crc — a digest whose object holds different content (or
  // an unreadable object) reports 0, so the writer re-Puts and the collision surfaces as
  // a typed error there rather than as silent content substitution.
  std::vector<uint8_t> PinAndQuery(const std::string& tag,
                                   const std::vector<ChunkProbe>& probes);

  // Stores digest -> raw bytes unless already present. `raw_crc` is the caller's CRC32 of
  // the raw bytes (the writer has it from its probe), so they are not checksummed again.
  // With `try_compress`, the payload is LZ-compressed and kept only if it beats the raw
  // size by >= 1/16. Updates `stats` (bytes_written / chunks_compressed; presence
  // accounting is the caller's). A dedup hit verifies the existing object's header
  // against the incoming size and CRC: a mismatch is kFailedPrecondition (digest
  // collision — refusing to alias), and an object whose header no longer parses is
  // rewritten in place (heals torn objects).
  Status Put(uint64_t digest, const void* raw, size_t raw_size, uint32_t raw_crc,
             bool try_compress, ChunkedWriteStats* stats);

  // Stores an already-encoded object (the daemon accepting a client's pre-compressed
  // chunk). The encoding is decoded and CRC-verified, and the decoded bytes must hash to
  // `digest` (kInvalidArgument otherwise), before anything is published — a bad client
  // can neither poison the shared index with an object that fails its own header nor
  // publish arbitrary content under a digest other tags may dedup against.
  Status PutEncoded(uint64_t digest, const void* encoded, size_t encoded_size);

  // Reads and fully verifies one chunk to raw bytes. A missing object is kDataLoss (a
  // dangling reference: some manifest names a chunk the index no longer holds).
  Result<std::vector<uint8_t>> ReadChunk(uint64_t digest);

  struct ChunkStat {
    bool exists = false;
    ChunkCodec codec = ChunkCodec::kRaw;
    uint32_t raw_size = 0;
    uint64_t stored_size = 0;  // on-disk object size including header
  };
  // Header-only stat for `ucp_tool du`; exists=false (not an error) when absent.
  Result<ChunkStat> StatChunk(uint64_t digest);

  void ReleaseTagPins(const std::string& tag);

  struct SweepReport {
    uint64_t live = 0;           // distinct digests still referenced or pinned
    uint64_t swept = 0;          // objects deleted
    uint64_t bytes_swept = 0;    // their on-disk size
    uint64_t skipped_young = 0;  // unreferenced but inside the grace window — kept
  };
  // Mark-and-sweep GC of the object directory. Marks every digest referenced by any
  // manifest in any tag directory (all jobs) or staging directory under the root, plus
  // all in-memory pins. A corrupt manifest in a *committed* tag aborts the sweep typed
  // (fail closed: never delete what a live tag might reference); a corrupt manifest in
  // staging debris is skipped (the tag never committed — its chunks are only protected
  // by pins, which the owning in-flight save still holds). Unreferenced objects whose
  // mtime is within `grace_seconds` are quarantined, not deleted — pins are per-process,
  // and the grace window is what protects another process's in-flight save from this
  // one's sweep (see the file comment). Pass 0 only when this process holds every pin
  // for the root.
  Result<SweepReport> Sweep(bool dry_run,
                            int64_t grace_seconds = kChunkSweepGraceSeconds);

  // Test hook: number of digests currently pinned across all tags.
  size_t PinnedCountForTest();

 private:
  explicit ChunkIndex(std::string root) : root_(std::move(root)) {}

  std::string ObjectPath(uint64_t digest) const;

  const std::string root_;
  std::mutex mu_;  // guards pins_ and orders Put/Sweep against each other
  std::map<std::string, std::set<uint64_t>> pins_;
};

// ByteSource over one manifest entry: ReadAt reassembles the requested range from chunk
// objects through `index`, caching a few decoded chunks (sequential readers hit the
// cache; the v3 views read header then payload ranges). `name` is the identity reported
// in errors and used as the slice-cache key.
Result<std::unique_ptr<ByteSource>> OpenManifestSource(std::shared_ptr<ChunkIndex> index,
                                                       const ChunkManifestEntry& entry,
                                                       uint64_t chunk_bytes,
                                                       std::string name);

// Opens `file` inside the tag directory `tag_dir` as a ByteSource: the physical file when
// present, otherwise resolved through the tag's chunk manifest. kNotFound when neither
// exists; kDataLoss when a manifest exists but is damaged (never a silent fallback).
// This is the one helper every direct-FS reader of native shard files goes through, so
// incremental tags are transparent to load, fsck, extract, and resume.
Result<std::unique_ptr<ByteSource>> OpenTagShardSource(const std::string& tag_dir,
                                                       const std::string& file);

// Reads + parses the manifest of `tag_dir` if one exists: nullopt when the tag has no
// manifest (a full save), kDataLoss when one exists but is damaged.
Result<std::optional<ChunkManifest>> ReadTagChunkManifest(const std::string& tag_dir);

}  // namespace ucp

#endif  // UCP_SRC_STORE_CHUNK_INDEX_H_
