#include "src/store/chunk_manifest.h"

#include <algorithm>
#include <cstdio>

#include "src/common/crc32.h"
#include "src/common/json.h"

namespace ucp {

const ChunkManifestEntry* ChunkManifest::Find(const std::string& name) const {
  for (const ChunkManifestEntry& entry : files) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

uint64_t ChunkManifest::LogicalBytes() const {
  uint64_t total = 0;
  for (const ChunkManifestEntry& entry : files) {
    total += entry.size;
  }
  return total;
}

uint32_t CombineChunkCrcs(const std::vector<uint32_t>& chunk_crcs, uint64_t size) {
  uint32_t crc = 0;  // CRC of the empty string
  for (size_t i = 0; i < chunk_crcs.size(); ++i) {
    const uint64_t off = i * kManifestChunkBytes;
    crc = Crc32Combine(crc, chunk_crcs[i], std::min<uint64_t>(kManifestChunkBytes, size - off));
  }
  return crc;
}

std::string SerializeChunkManifest(const ChunkManifest& manifest) {
  JsonArray files;
  for (const ChunkManifestEntry& entry : manifest.files) {
    JsonArray chunks;
    chunks.reserve(entry.chunks.size());
    for (uint64_t digest : entry.chunks) {
      chunks.emplace_back(DigestToHex(digest));
    }
    JsonObject file;
    file["name"] = entry.name;
    file["size"] = entry.size;
    file["crc32"] = static_cast<uint64_t>(entry.crc32);
    file["inherited"] = entry.inherited;
    file["chunks"] = std::move(chunks);
    files.emplace_back(std::move(file));
  }
  JsonObject body;
  body["version"] = 1;
  body["parent"] = manifest.parent;
  body["chunk_bytes"] = manifest.chunk_bytes;
  body["files"] = std::move(files);
  const std::string json = Json(std::move(body)).Dump(2);
  char header[32];
  std::snprintf(header, sizeof(header), "UCPM1 %08x\n", Crc32(json.data(), json.size()));
  return std::string(header) + json;
}

Result<ChunkManifest> ParseChunkManifest(const std::string& text) {
  // Header line: "UCPM1 xxxxxxxx\n" — fixed width, so damage to the first 15 bytes is
  // detected structurally and damage to the body by the CRC.
  constexpr size_t kHeaderLen = 15;  // "UCPM1 " + 8 hex + '\n'
  if (text.size() < kHeaderLen || text.compare(0, 6, "UCPM1 ") != 0 ||
      text[kHeaderLen - 1] != '\n') {
    return DataLossError("chunk manifest: bad or truncated header");
  }
  uint32_t declared = 0;
  for (size_t i = 6; i < kHeaderLen - 1; ++i) {
    const char c = text[i];
    uint32_t d;
    if (c >= '0' && c <= '9') d = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<uint32_t>(c - 'a' + 10);
    else return DataLossError("chunk manifest: malformed header CRC");
    declared = declared << 4 | d;
  }
  const std::string body = text.substr(kHeaderLen);
  const uint32_t actual = Crc32(body.data(), body.size());
  if (actual != declared) {
    return DataLossError("chunk manifest: body CRC mismatch (file damaged or truncated)");
  }
  Result<Json> parsed = Json::Parse(body);
  if (!parsed.ok()) {
    return DataLossError("chunk manifest: body does not parse: " +
                         parsed.status().message());
  }
  const Json& json = *parsed;
  if (!json.is_object()) {
    return DataLossError("chunk manifest: body is not an object");
  }
  Result<int64_t> version = json.GetInt("version");
  if (!version.ok() || *version != 1) {
    return DataLossError("chunk manifest: missing or unsupported version");
  }
  ChunkManifest manifest;
  UCP_ASSIGN_OR_RETURN(manifest.parent, json.GetString("parent"));
  UCP_ASSIGN_OR_RETURN(int64_t chunk_bytes, json.GetInt("chunk_bytes"));
  if (chunk_bytes <= 0 ||
      static_cast<uint64_t>(chunk_bytes) > kMaxManifestChunkBytes) {
    return DataLossError("chunk manifest: chunk_bytes out of range");
  }
  manifest.chunk_bytes = static_cast<uint64_t>(chunk_bytes);
  UCP_ASSIGN_OR_RETURN(const JsonArray* files, json.GetArray("files"));
  for (const Json& file : *files) {
    if (!file.is_object()) {
      return DataLossError("chunk manifest: file entry is not an object");
    }
    ChunkManifestEntry entry;
    UCP_ASSIGN_OR_RETURN(entry.name, file.GetString("name"));
    UCP_ASSIGN_OR_RETURN(int64_t size, file.GetInt("size"));
    UCP_ASSIGN_OR_RETURN(int64_t crc, file.GetInt("crc32"));
    UCP_ASSIGN_OR_RETURN(int64_t inherited, file.GetInt("inherited"));
    if (size < 0 || crc < 0 || crc > 0xffffffffll || inherited < 0) {
      return DataLossError("chunk manifest: out-of-range field in entry " + entry.name);
    }
    entry.size = static_cast<uint64_t>(size);
    entry.crc32 = static_cast<uint32_t>(crc);
    entry.inherited = static_cast<uint64_t>(inherited);
    UCP_ASSIGN_OR_RETURN(const JsonArray* chunks, file.GetArray("chunks"));
    entry.chunks.reserve(chunks->size());
    for (const Json& chunk : *chunks) {
      if (!chunk.is_string()) {
        return DataLossError("chunk manifest: non-string digest in entry " + entry.name);
      }
      std::optional<uint64_t> digest = DigestFromHex(chunk.AsString());
      if (!digest.has_value()) {
        return DataLossError("chunk manifest: malformed digest in entry " + entry.name);
      }
      entry.chunks.push_back(*digest);
    }
    const uint64_t expect_chunks =
        (entry.size + manifest.chunk_bytes - 1) / manifest.chunk_bytes;
    if (entry.chunks.size() != expect_chunks) {
      return DataLossError("chunk manifest: chunk count does not match size in entry " +
                           entry.name);
    }
    manifest.files.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace ucp
