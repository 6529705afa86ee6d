#include "src/store/chunk_index.h"

#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/lz.h"
#include "src/obs/metrics.h"
#include "src/store/tags.h"
#include "src/tensor/chunk_digest.h"

namespace ucp {

namespace {

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

// Header of the object at `path` without reading its payload.
Result<ChunkObjectHeader> ReadObjectHeader(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(RandomAccessFile file, RandomAccessFile::Open(path));
  uint8_t header[kChunkHeaderBytes];
  UCP_RETURN_IF_ERROR(file.ReadAt(0, header, sizeof(header)));
  return ParseChunkObjectHeader(header, sizeof(header));
}

// Does the stored object's header say it holds exactly these raw bytes? (Combined with
// the 64-bit address digest this is a ~96-bit equality check — the dedup paths use it so
// a digest collision can never silently substitute one chunk's content for another's.)
bool HeaderMatchesRaw(const ChunkObjectHeader& header, uint32_t raw_size,
                      uint32_t raw_crc) {
  return header.raw_size == raw_size && header.raw_crc == raw_crc;
}

}  // namespace

std::string ChunkObjectRel(uint64_t digest) {
  const std::string hex = DigestToHex(digest);
  return std::string(kChunkDirName) + "/" + hex.substr(0, 2) + "/" + hex;
}

std::vector<uint8_t> EncodeChunkObject(ChunkCodec codec, uint32_t raw_size,
                                       uint32_t raw_crc, const void* stored,
                                       size_t stored_size) {
  ByteWriter writer;
  writer.PutU32(kChunkMagic);
  writer.PutU8(static_cast<uint8_t>(codec));
  writer.PutU32(raw_size);
  writer.PutU32(raw_crc);
  writer.PutBytes(stored, stored_size);
  return writer.TakeBuffer();
}

Result<ChunkObjectHeader> ParseChunkObjectHeader(const void* data, size_t size) {
  if (size < kChunkHeaderBytes) {
    return DataLossError("chunk object shorter than its header");
  }
  ByteReader reader(data, size);
  ChunkObjectHeader header;
  UCP_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  UCP_ASSIGN_OR_RETURN(const uint8_t codec, reader.GetU8());
  UCP_ASSIGN_OR_RETURN(header.raw_size, reader.GetU32());
  UCP_ASSIGN_OR_RETURN(header.raw_crc, reader.GetU32());
  if (magic != kChunkMagic) {
    return DataLossError("chunk object has bad magic");
  }
  if (codec > static_cast<uint8_t>(ChunkCodec::kLz)) {
    return DataLossError("chunk object has unknown codec " + std::to_string(codec));
  }
  header.codec = static_cast<ChunkCodec>(codec);
  return header;
}

Result<std::vector<uint8_t>> DecodeChunkObject(const void* data, size_t size,
                                               const std::string& context) {
  Result<ChunkObjectHeader> header = ParseChunkObjectHeader(data, size);
  if (!header.ok()) {
    return DataLossError(context + ": " + header.status().message());
  }
  const uint8_t* payload = static_cast<const uint8_t*>(data) + kChunkHeaderBytes;
  const size_t payload_size = size - kChunkHeaderBytes;
  std::vector<uint8_t> raw;
  if (header->codec == ChunkCodec::kRaw) {
    if (payload_size != header->raw_size) {
      return DataLossError(context + ": raw payload size mismatch");
    }
    raw.assign(payload, payload + payload_size);
  } else {
    raw.resize(header->raw_size);
    Status decompressed =
        LzDecompress(payload, payload_size, raw.data(), header->raw_size);
    if (!decompressed.ok()) {
      return DataLossError(context + ": " + decompressed.message());
    }
  }
  if (Crc32(raw.data(), raw.size()) != header->raw_crc) {
    return DataLossError(context + ": chunk CRC mismatch (bit rot or forged digest)");
  }
  return raw;
}

std::shared_ptr<ChunkIndex> ChunkIndex::ForRoot(const std::string& root) {
  // Canonicalize so "dir" and "dir/" (and symlinked spellings, once the dir exists) share
  // one index — pins taken through LocalStore must be visible to the server's sweep.
  std::string key = root;
  while (key.size() > 1 && key.back() == '/') {
    key.pop_back();
  }
  if (char* resolved = ::realpath(key.c_str(), nullptr)) {
    key = resolved;
    ::free(resolved);
  }
  static std::mutex registry_mu;
  static std::map<std::string, std::shared_ptr<ChunkIndex>>* registry =
      new std::map<std::string, std::shared_ptr<ChunkIndex>>();
  std::lock_guard<std::mutex> lock(registry_mu);
  std::shared_ptr<ChunkIndex>& index = (*registry)[key];
  if (index == nullptr) {
    index = std::shared_ptr<ChunkIndex>(new ChunkIndex(key));
  }
  return index;
}

std::string ChunkIndex::ObjectPath(uint64_t digest) const {
  return PathJoin(root_, ChunkObjectRel(digest));
}

std::vector<uint8_t> ChunkIndex::PinAndQuery(const std::string& tag,
                                             const std::vector<ChunkProbe>& probes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<uint64_t>& pinned = pins_[tag];
  std::vector<uint8_t> present(probes.size(), 0);
  for (size_t i = 0; i < probes.size(); ++i) {
    pinned.insert(probes[i].digest);
    const std::string path = ObjectPath(probes[i].digest);
    if (!FileExists(path)) {
      continue;
    }
    // "Present" means present *with this content*: an aliased digest (collision) or a
    // damaged object answers 0, routing the writer to Put, which either heals the object
    // or fails the collision typed.
    Result<ChunkObjectHeader> header = ReadObjectHeader(path);
    present[i] = header.ok() && HeaderMatchesRaw(*header, probes[i].raw_size,
                                                 probes[i].raw_crc)
                     ? 1
                     : 0;
  }
  return present;
}

Status ChunkIndex::Put(uint64_t digest, const void* raw, size_t raw_size, uint32_t raw_crc,
                       bool try_compress, ChunkedWriteStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = ObjectPath(digest);
  if (FileExists(path)) {
    Result<ChunkObjectHeader> existing = ReadObjectHeader(path);
    if (existing.ok()) {
      if (HeaderMatchesRaw(*existing, static_cast<uint32_t>(raw_size), raw_crc)) {
        return OkStatus();  // dedup hit, content verified via size+crc
      }
      // Two different contents hash to one 64-bit digest. Storing either under the
      // shared address would silently corrupt whoever references the other, so the save
      // fails loudly here, while every committed tag is still intact.
      return FailedPreconditionError(
          "chunk digest collision: object " + DigestToHex(digest) +
          " already holds different content (size/crc mismatch); refusing to alias");
    }
    // Existing object is torn/unparseable — fall through and rewrite it with good bytes.
  }
  std::vector<uint8_t> encoded;
  if (try_compress) {
    std::vector<uint8_t> compressed;
    if (LzCompress(raw, raw_size, &compressed) == LzCompressOutcome::kCompressed) {
      encoded = EncodeChunkObject(ChunkCodec::kLz, static_cast<uint32_t>(raw_size),
                                  raw_crc, compressed.data(), compressed.size());
      if (stats != nullptr) {
        ++stats->chunks_compressed;
      }
    }
  }
  if (encoded.empty()) {
    encoded = EncodeChunkObject(ChunkCodec::kRaw, static_cast<uint32_t>(raw_size),
                                raw_crc, raw, raw_size);
  }
  UCP_RETURN_IF_ERROR(MakeDirs(Dirname(path)));
  UCP_RETURN_IF_ERROR(WriteFileAtomic(path, encoded.data(), encoded.size()));
  if (stats != nullptr) {
    stats->bytes_written += encoded.size();
  }
  return OkStatus();
}

Status ChunkIndex::PutEncoded(uint64_t digest, const void* encoded, size_t encoded_size) {
  // Decode-verify before publishing: the object must be internally consistent (header
  // parses, payload decompresses, raw CRC matches) so a truncated or corrupted upload can
  // never land in the shared index under a digest other tags may reference.
  UCP_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> raw,
      DecodeChunkObject(encoded, encoded_size, "chunk " + DigestToHex(digest)));
  // And the decoded content must actually hash to the claimed digest — otherwise a buggy
  // or malicious client could publish arbitrary (self-consistent) content under any
  // address, poisoning every tag that later dedups against it.
  const uint64_t actual = ChunkDigest(raw.data(), raw.size());
  if (actual != digest) {
    return InvalidArgumentError("chunk content hashes to " + DigestToHex(actual) +
                                ", not its claimed digest " + DigestToHex(digest) +
                                " (forged upload rejected)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = ObjectPath(digest);
  if (FileExists(path)) {
    Result<ChunkObjectHeader> existing = ReadObjectHeader(path);
    if (existing.ok()) {
      if (HeaderMatchesRaw(*existing, static_cast<uint32_t>(raw.size()),
                           Crc32(raw.data(), raw.size()))) {
        return OkStatus();
      }
      return FailedPreconditionError(
          "chunk digest collision: object " + DigestToHex(digest) +
          " already holds different content (size/crc mismatch); refusing to alias");
    }
    // Torn/unparseable existing object: rewrite it with the verified upload.
  }
  UCP_RETURN_IF_ERROR(MakeDirs(Dirname(path)));
  return WriteFileAtomic(path, encoded, encoded_size);
}

Result<std::vector<uint8_t>> ChunkIndex::ReadChunk(uint64_t digest) {
  const std::string path = ObjectPath(digest);
  if (!FileExists(path)) {
    return DataLossError("dangling chunk reference: object " + DigestToHex(digest) +
                         " is not in the index (GC'd or never written)");
  }
  UCP_ASSIGN_OR_RETURN(std::string encoded, ReadFileToString(path));
  return DecodeChunkObject(encoded.data(), encoded.size(),
                           "chunk " + DigestToHex(digest));
}

Result<ChunkIndex::ChunkStat> ChunkIndex::StatChunk(uint64_t digest) {
  ChunkStat stat;
  const std::string path = ObjectPath(digest);
  if (!FileExists(path)) {
    return stat;
  }
  UCP_ASSIGN_OR_RETURN(ChunkObjectHeader parsed, ReadObjectHeader(path));
  UCP_ASSIGN_OR_RETURN(stat.stored_size, FileSize(path));
  stat.exists = true;
  stat.codec = parsed.codec;
  stat.raw_size = parsed.raw_size;
  return stat;
}

void ChunkIndex::ReleaseTagPins(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_.erase(tag);
}

size_t ChunkIndex::PinnedCountForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [tag, digests] : pins_) {
    count += digests.size();
  }
  return count;
}

Result<ChunkIndex::SweepReport> ChunkIndex::Sweep(bool dry_run, int64_t grace_seconds) {
  // The lock spans mark AND sweep: a PinAndQuery between the two could otherwise see
  // "present" for an object the sweep is about to delete.
  std::lock_guard<std::mutex> lock(mu_);
  static obs::Counter& sweeps =
      obs::MetricsRegistry::Global().GetCounter("store.chunks.sweeps");
  static obs::Counter& swept_objects =
      obs::MetricsRegistry::Global().GetCounter("store.chunks.swept_objects");
  static obs::Counter& swept_bytes =
      obs::MetricsRegistry::Global().GetCounter("store.chunks.swept_bytes");

  std::set<uint64_t> live;
  for (const auto& [tag, digests] : pins_) {
    live.insert(digests.begin(), digests.end());
  }
  if (DirExists(root_)) {
    UCP_ASSIGN_OR_RETURN(std::vector<std::string> entries, ListDir(root_));
    for (const std::string& name : entries) {
      const std::string dir = PathJoin(root_, name);
      if (name == kChunkDirName || !DirExists(dir)) {
        continue;
      }
      const std::string manifest_path = PathJoin(dir, kChunkManifestName);
      if (!FileExists(manifest_path)) {
        continue;
      }
      UCP_ASSIGN_OR_RETURN(std::string text, ReadFileToString(manifest_path));
      Result<ChunkManifest> manifest = ParseChunkManifest(text);
      if (!manifest.ok()) {
        if (FileExists(PathJoin(dir, kCompleteMarker))) {
          // Fail closed: a committed tag we cannot enumerate might reference any chunk,
          // so no sweep may run until fsck deals with the damaged manifest.
          return DataLossError("chunk sweep aborted: manifest of committed tag " + name +
                               " is damaged: " + manifest.status().message());
        }
        // Uncommitted / staging debris: its save either crashed (the debris sweep will
        // remove it) or is in flight (its chunks are pinned). Nothing to mark.
        UCP_LOG(Warning) << "chunk sweep: skipping damaged manifest in uncommitted dir "
                         << name << ": " << manifest.status().ToString();
        continue;
      }
      for (const ChunkManifestEntry& entry : manifest->files) {
        live.insert(entry.chunks.begin(), entry.chunks.end());
      }
    }
  }

  SweepReport report;
  const int64_t now = static_cast<int64_t>(::time(nullptr));
  const std::string chunk_root = PathJoin(root_, kChunkDirName);
  if (!DirExists(chunk_root)) {
    sweeps.Add(1);
    return report;
  }
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> fanouts, ListDir(chunk_root));
  for (const std::string& fanout : fanouts) {
    const std::string fanout_dir = PathJoin(chunk_root, fanout);
    if (!DirExists(fanout_dir)) {
      continue;
    }
    UCP_ASSIGN_OR_RETURN(std::vector<std::string> objects, ListDir(fanout_dir));
    for (const std::string& object : objects) {
      std::optional<uint64_t> digest = DigestFromHex(object);
      if (!digest.has_value()) {
        continue;  // not ours; leave foreign files alone
      }
      if (live.count(*digest) != 0) {
        ++report.live;
        continue;
      }
      const std::string path = PathJoin(fanout_dir, object);
      if (grace_seconds > 0) {
        // Quarantine, don't delete: a young unreferenced object may be a dirty chunk of
        // another process's in-flight save whose pins this process cannot see (its
        // manifest lands at FinalizeManifest). It becomes sweepable once it ages out.
        if (Result<int64_t> mtime = FileMtimeSeconds(path);
            mtime.ok() && now - *mtime < grace_seconds) {
          ++report.skipped_young;
          continue;
        }
      }
      uint64_t size = 0;
      if (Result<uint64_t> file_size = FileSize(path); file_size.ok()) {
        size = *file_size;
      }
      if (!dry_run) {
        UCP_RETURN_IF_ERROR(RemoveAll(path));
      }
      ++report.swept;
      report.bytes_swept += size;
    }
  }
  sweeps.Add(1);
  swept_objects.Add(report.swept);
  swept_bytes.Add(report.bytes_swept);
  return report;
}

namespace {

// Reassembles ReadAt ranges of one manifest entry from chunk objects, with a tiny LRU of
// decoded chunks (the v3 views read the header region, then chunk-aligned payload ranges,
// so adjacent reads hit the cache).
class ManifestByteSource final : public ByteSource {
 public:
  ManifestByteSource(std::shared_ptr<ChunkIndex> index, ChunkManifestEntry entry,
                     uint64_t chunk_bytes, std::string name)
      : index_(std::move(index)),
        entry_(std::move(entry)),
        chunk_bytes_(chunk_bytes),
        name_(std::move(name)) {}

  uint64_t size() const override { return entry_.size; }
  const std::string& name() const override { return name_; }

  Status ReadAt(uint64_t offset, void* out, size_t size) override {
    if (offset > entry_.size || size > entry_.size - offset) {
      return DataLossError("read past end of " + name_ + " (manifest-backed)");
    }
    uint8_t* dst = static_cast<uint8_t*>(out);
    uint64_t pos = offset;
    size_t remaining = size;
    while (remaining > 0) {
      const uint64_t chunk_idx = pos / chunk_bytes_;
      const uint64_t chunk_off = pos % chunk_bytes_;
      UCP_ASSIGN_OR_RETURN(const std::vector<uint8_t>* chunk, GetChunk(chunk_idx));
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(remaining, chunk->size() - chunk_off));
      std::memcpy(dst, chunk->data() + chunk_off, take);
      dst += take;
      pos += take;
      remaining -= take;
    }
    return OkStatus();
  }

 private:
  // Returns a pointer into the cache; valid until the next GetChunk on this source.
  Result<const std::vector<uint8_t>*> GetChunk(uint64_t chunk_idx) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < cache_.size(); ++i) {
      if (cache_[i].first == chunk_idx) {
        std::rotate(cache_.begin(), cache_.begin() + static_cast<long>(i),
                    cache_.begin() + static_cast<long>(i) + 1);
        return const_cast<const std::vector<uint8_t>*>(&cache_.front().second);
      }
    }
    UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                         index_->ReadChunk(entry_.chunks[chunk_idx]));
    const uint64_t expect = std::min<uint64_t>(
        chunk_bytes_, entry_.size - chunk_idx * chunk_bytes_);
    if (raw.size() != expect) {
      return DataLossError("chunk " + DigestToHex(entry_.chunks[chunk_idx]) + " of " +
                           name_ + " has wrong size (forged or aliased digest)");
    }
    cache_.insert(cache_.begin(), {chunk_idx, std::move(raw)});
    if (cache_.size() > kCacheChunks) {
      cache_.pop_back();
    }
    return const_cast<const std::vector<uint8_t>*>(&cache_.front().second);
  }

  static constexpr size_t kCacheChunks = 4;

  const std::shared_ptr<ChunkIndex> index_;
  const ChunkManifestEntry entry_;
  const uint64_t chunk_bytes_;
  const std::string name_;
  std::mutex mu_;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> cache_;
};

}  // namespace

Result<std::unique_ptr<ByteSource>> OpenManifestSource(std::shared_ptr<ChunkIndex> index,
                                                       const ChunkManifestEntry& entry,
                                                       uint64_t chunk_bytes,
                                                       std::string name) {
  if (chunk_bytes == 0) {
    return DataLossError("manifest chunk_bytes is zero for " + name);
  }
  return std::unique_ptr<ByteSource>(
      new ManifestByteSource(std::move(index), entry, chunk_bytes, std::move(name)));
}

Result<std::optional<ChunkManifest>> ReadTagChunkManifest(const std::string& tag_dir) {
  const std::string path = PathJoin(tag_dir, kChunkManifestName);
  if (!FileExists(path)) {
    return std::optional<ChunkManifest>();
  }
  UCP_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  Result<ChunkManifest> manifest = ParseChunkManifest(text);
  if (!manifest.ok()) {
    return DataLossError("tag " + tag_dir + ": " + manifest.status().message());
  }
  return std::optional<ChunkManifest>(std::move(*manifest));
}

Result<std::unique_ptr<ByteSource>> OpenTagShardSource(const std::string& tag_dir,
                                                       const std::string& file) {
  const std::string physical = PathJoin(tag_dir, file);
  if (FileExists(physical)) {
    return FileByteSource::Open(physical);
  }
  UCP_ASSIGN_OR_RETURN(std::optional<ChunkManifest> manifest,
                       ReadTagChunkManifest(tag_dir));
  if (manifest.has_value()) {
    if (const ChunkManifestEntry* entry = manifest->Find(file)) {
      return OpenManifestSource(ChunkIndex::ForRoot(Dirname(tag_dir)), *entry,
                                manifest->chunk_bytes, physical);
    }
  }
  return NotFoundError("no such file: " + physical);
}

}  // namespace ucp
