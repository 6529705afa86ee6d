// The per-tag chunk manifest: how an incremental save describes its shard files as
// sequences of content-addressed chunks.
//
// An incremental flush stores shard payloads as chunk objects in the store's shared
// content-addressed index (see chunk_index.h) instead of as whole files, and writes one
// `chunk_manifest.ucm` into the tag directory mapping each logical file to its ordered
// digest list. Readers that find no physical shard file consult the manifest and
// reassemble the file chunk-by-chunk; readers of full (non-incremental) tags never see a
// manifest and behave exactly as before.
//
// On-disk format — a one-line header followed by a JSON body:
//   UCPM1 <crc32-hex-of-body>\n
//   { "version": 1, "parent": "<tag or empty>", "chunk_bytes": 65536,
//     "files": [ { "name": ..., "size": ..., "crc32": ..., "inherited": N,
//                  "chunks": ["<16-hex digest>", ...] }, ... ] }
// The CRC covers every byte after the header line. A truncated or bit-rotted manifest
// fails the CRC (or the parse) and surfaces as typed kDataLoss — resolution of the tag
// fails loudly rather than silently falling back to stale or partial data.
//
// `parent` and `inherited` are provenance for tooling and stats only: correctness never
// depends on the parent tag still existing, because every chunk (inherited or fresh) is
// referenced by digest against the shared index, not against the parent's files.

#ifndef UCP_SRC_STORE_CHUNK_MANIFEST_H_
#define UCP_SRC_STORE_CHUNK_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/tensor/chunk_digest.h"

namespace ucp {

// Name of the manifest file inside a tag (and its staging) directory.
inline constexpr char kChunkManifestName[] = "chunk_manifest.ucm";

// Parse-time sanity bound on a manifest's chunk_bytes. Real manifests use 64 KiB; the
// bound keeps a corrupt or hostile value from overflowing downstream arithmetic (readers
// index chunks with 32-bit-safe math only below ~2^32).
inline constexpr uint64_t kMaxManifestChunkBytes = 1ull << 30;

struct ChunkManifestEntry {
  std::string name;              // file name inside the tag (e.g. an optim shard)
  uint64_t size = 0;             // raw file size in bytes
  uint32_t crc32 = 0;            // CRC32 of the whole raw file
  std::vector<uint64_t> chunks;  // digest per chunk_bytes-sized span, in file order
  uint64_t inherited = 0;        // chunks unchanged vs the parent tag (stats only)
};

struct ChunkManifest {
  std::string parent;                      // tag the digests were diffed against; "" = cold
  uint64_t chunk_bytes = kManifestChunkBytes;
  std::vector<ChunkManifestEntry> files;

  const ChunkManifestEntry* Find(const std::string& name) const;

  // Sum of `size` (logical) across entries.
  uint64_t LogicalBytes() const;
};

// The CRC32 of a whole `size`-byte file from the CRCs of its kManifestChunkBytes chunks
// (chunk_crcs[i] covers bytes [i * kManifestChunkBytes, ...)), without touching the bytes.
uint32_t CombineChunkCrcs(const std::vector<uint32_t>& chunk_crcs, uint64_t size);

// Renders the header line + JSON body described above.
std::string SerializeChunkManifest(const ChunkManifest& manifest);

// Parses and CRC-verifies a serialized manifest. Any damage — bad magic, CRC mismatch,
// malformed JSON, a digest that is not 16 hex digits, a chunk count inconsistent with the
// declared size — is kDataLoss.
Result<ChunkManifest> ParseChunkManifest(const std::string& text);

}  // namespace ucp

#endif  // UCP_SRC_STORE_CHUNK_MANIFEST_H_
