#include "src/tensor/tensor_file.h"

#include <atomic>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/obs/metrics.h"

namespace ucp {
namespace {

using tensor_file_internal::ChunkedPayload;
using tensor_file_internal::VerifiedWindow;

constexpr uint32_t kTensorMagic = 0x31544355;  // "UCT1" little-endian
constexpr uint32_t kBundleMagic = 0x31424355;  // "UCB1" little-endian
constexpr uint32_t kEndianTag = 0x01020304;
constexpr uint32_t kFormatVersion = 3;  // see the header's version history

// Chunk sizing: 64 KiB default, halved down to 4 KiB until a payload spans at least four
// chunks, so chunk-CRC localization is meaningful even for simulator-scale tensors.
constexpr uint32_t kMaxChunkBytes = 64 * 1024;
constexpr uint32_t kMinChunkBytes = 4 * 1024;

uint32_t PickChunkBytes(uint64_t payload_bytes) {
  uint32_t chunk = kMaxChunkBytes;
  while (chunk > kMinChunkBytes && payload_bytes < 4ull * chunk) {
    chunk /= 2;
  }
  return chunk;
}

uint32_t NumChunksFor(uint64_t payload_bytes, uint32_t chunk_bytes) {
  if (payload_bytes == 0) {
    return 0;
  }
  return static_cast<uint32_t>((payload_bytes + chunk_bytes - 1) / chunk_bytes);
}

// Registry-backed (see src/obs/metrics.h); GetTensorIoStats reads these back out.
obs::Counter& BytesReadCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("tensor.io.bytes_read");
  return c;
}
obs::Counter& ReadCallsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("tensor.io.read_calls");
  return c;
}
obs::Counter& ChunksVerifiedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("tensor.io.chunks_verified");
  return c;
}

void CountRead(uint64_t bytes) {
  BytesReadCounter().Add(bytes);
  ReadCallsCounter().Add(1);
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PatchU64(std::vector<uint8_t>& buf, size_t at, uint64_t v) {
  std::memcpy(buf.data() + at, &v, 8);
}

void AppendU32(std::vector<uint8_t>& buf, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  buf.insert(buf.end(), p, p + 4);
}

// ---------------------------------------------------------------------------
// Payload encoding/decoding. On-disk payloads are raw little-endian values of the storage
// dtype; in-memory tensors are always fp32.

std::vector<uint8_t> EncodePayload(const Tensor& t, DType dtype) {
  const float* p = t.data();
  int64_t n = t.numel();
  std::vector<uint8_t> out(static_cast<size_t>(n) * DTypeSize(dtype));
  switch (dtype) {
    case DType::kF32:
      std::memcpy(out.data(), p, out.size());
      break;
    case DType::kBF16:
      for (int64_t i = 0; i < n; ++i) {
        uint16_t v = F32ToBf16(p[i]);
        out[2 * i] = static_cast<uint8_t>(v & 0xFF);
        out[2 * i + 1] = static_cast<uint8_t>(v >> 8);
      }
      break;
    case DType::kF16:
      for (int64_t i = 0; i < n; ++i) {
        uint16_t v = F32ToF16(p[i]);
        out[2 * i] = static_cast<uint8_t>(v & 0xFF);
        out[2 * i + 1] = static_cast<uint8_t>(v >> 8);
      }
      break;
  }
  return out;
}

void DecodeElements(const uint8_t* raw, DType dtype, int64_t count, float* out) {
  switch (dtype) {
    case DType::kF32:
      std::memcpy(out, raw, static_cast<size_t>(count) * sizeof(float));
      break;
    case DType::kBF16:
    case DType::kF16:
      for (int64_t i = 0; i < count; ++i) {
        uint16_t v = static_cast<uint16_t>(raw[2 * i]) |
                     (static_cast<uint16_t>(raw[2 * i + 1]) << 8);
        out[i] = dtype == DType::kBF16 ? Bf16ToF32(v) : F16ToF32(v);
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// Shared header pieces (tensor files and bundle entries use the same dtype/shape/
// payload-size encoding).

void PutHeader(ByteWriter& w, const Tensor& t, DType dtype) {
  w.PutU8(static_cast<uint8_t>(dtype));
  w.PutU32(static_cast<uint32_t>(t.ndim()));
  for (int i = 0; i < t.ndim(); ++i) {
    w.PutI64(t.dim(i));
  }
}

struct ParsedHeader {
  Shape shape;
  DType dtype;
  uint64_t payload_bytes;
};

Result<ParsedHeader> GetHeaderAndSize(ByteReader& r) {
  ParsedHeader h;
  UCP_ASSIGN_OR_RETURN(uint8_t dtype_byte, r.GetU8());
  if (dtype_byte > static_cast<uint8_t>(DType::kF16)) {
    return DataLossError("unknown dtype byte " + std::to_string(dtype_byte));
  }
  h.dtype = static_cast<DType>(dtype_byte);
  UCP_ASSIGN_OR_RETURN(uint32_t ndim, r.GetU32());
  if (ndim > 16) {
    return DataLossError("implausible tensor rank " + std::to_string(ndim));
  }
  for (uint32_t i = 0; i < ndim; ++i) {
    UCP_ASSIGN_OR_RETURN(int64_t d, r.GetI64());
    if (d < 0) {
      return DataLossError("negative dimension in tensor header");
    }
    h.shape.push_back(d);
  }
  UCP_ASSIGN_OR_RETURN(h.payload_bytes, r.GetU64());
  uint64_t expect = static_cast<uint64_t>(ShapeNumel(h.shape)) * DTypeSize(h.dtype);
  if (h.payload_bytes != expect) {
    return DataLossError("payload size " + std::to_string(h.payload_bytes) +
                         " does not match shape " + ShapeToString(h.shape));
  }
  return h;
}

std::string ChunkCrcErr(const std::string& what, size_t chunk_index, size_t num_chunks) {
  // "per-tensor CRC mismatch in <member>" is the phrasing callers and fsck match on; the
  // chunk suffix pinpoints the damage.
  return "per-tensor CRC mismatch in " + what + " (chunk " + std::to_string(chunk_index) +
         " of " + std::to_string(num_chunks) + ")";
}

// Verifies every chunk CRC of a payload already in memory.
Status VerifyChunks(const uint8_t* payload, uint64_t payload_bytes, uint32_t chunk_bytes,
                    const std::vector<uint32_t>& crcs, const std::string& what) {
  for (size_t ci = 0; ci < crcs.size(); ++ci) {
    uint64_t start = ci * static_cast<uint64_t>(chunk_bytes);
    uint64_t size = std::min<uint64_t>(chunk_bytes, payload_bytes - start);
    if (Crc32(payload + start, static_cast<size_t>(size)) != crcs[ci]) {
      return DataLossError(ChunkCrcErr(what, ci, crcs.size()));
    }
    ChunksVerifiedCounter().Add(1);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// v3 writers. Layout (single tensor):
//   u32 magic | u32 endian | u32 version
//   u64 header_bytes                         (fixed offset 12; == payload start offset)
//   u8 dtype | u32 ndim | i64 dims[ndim] | u64 payload_bytes
//   u32 chunk_bytes | u32 num_chunks | u32 chunk_crc[num_chunks]
//   u32 header_crc                           (CRC32 over bytes [0, here))
//   payload (raw)
//   u32 file_crc                             (CRC32 over bytes [0, here))
// Bundles use the same prologue, then meta string + entry table (each entry additionally
// records its absolute payload offset), header_crc, concatenated payloads, file_crc.

// Writes the chunk table of `payload` and returns the CRC of the whole payload, combined
// from the chunk CRCs so the payload bytes are checksummed once.
uint32_t PutChunkTable(ByteWriter& w, const std::vector<uint8_t>& payload,
                       uint32_t chunk_bytes) {
  uint32_t num_chunks = NumChunksFor(payload.size(), chunk_bytes);
  w.PutU32(chunk_bytes);
  w.PutU32(num_chunks);
  uint32_t payload_crc = 0;  // CRC of the empty string
  for (uint32_t ci = 0; ci < num_chunks; ++ci) {
    uint64_t start = ci * static_cast<uint64_t>(chunk_bytes);
    uint64_t size = std::min<uint64_t>(chunk_bytes, payload.size() - start);
    const uint32_t crc = Crc32(payload.data() + start, static_cast<size_t>(size));
    w.PutU32(crc);
    payload_crc = Crc32Combine(payload_crc, crc, size);
  }
  return payload_crc;
}

// `payload_crcs[i]` is the CRC PutChunkTable returned for `payloads[i]`.
std::vector<uint8_t> BuildV3(ByteWriter& header,
                             const std::vector<const std::vector<uint8_t>*>& payloads,
                             const std::vector<uint32_t>& payload_crcs,
                             const std::vector<size_t>& offset_patch_positions) {
  std::vector<uint8_t> buf = header.TakeBuffer();
  uint64_t header_bytes = buf.size() + 4;  // + header_crc
  PatchU64(buf, 12, header_bytes);
  uint64_t running = header_bytes;
  for (size_t i = 0; i < offset_patch_positions.size(); ++i) {
    PatchU64(buf, offset_patch_positions[i], running);
    running += payloads[i]->size();
  }
  const uint32_t header_state = Crc32Update(Crc32Init(), buf.data(), buf.size());
  AppendU32(buf, Crc32Finalize(header_state));  // header_crc
  // file_crc continues over the header_crc field, then folds in each payload's CRC instead
  // of a second pass over the payload bytes.
  uint32_t file_crc = Crc32Finalize(Crc32Update(header_state, buf.data() + buf.size() - 4, 4));
  for (size_t i = 0; i < payloads.size(); ++i) {
    buf.insert(buf.end(), payloads[i]->begin(), payloads[i]->end());
    file_crc = Crc32Combine(file_crc, payload_crcs[i], payloads[i]->size());
  }
  AppendU32(buf, file_crc);
  return buf;
}

// ---------------------------------------------------------------------------
// Read-side helpers.

// Checks magic + endian tag of the 12-byte prologue and returns its version field.
Result<uint32_t> CheckPrologue(const uint8_t* p, uint32_t magic, const char* kind,
                               const std::string& path) {
  if (LoadU32(p) != magic) {
    return DataLossError(std::string(kind) + " bad magic in " + path);
  }
  if (LoadU32(p + 4) != kEndianTag) {
    return DataLossError(std::string(kind) + " endianness mismatch in " + path);
  }
  return LoadU32(p + 8);
}

// The check every whole-file reader runs first: prologue, trailing whole-file CRC, then the
// version field; returns the header size. The order is a correctness property: a version
// other than kFormatVersion is kFailedPrecondition only once the CRC vouches for it, so
// bit rot in the version field stays kDataLoss — which resume answers by falling back to
// an older tag, where kFailedPrecondition would send it into a conversion instead.
Result<uint64_t> CheckWholeFile(const std::string& contents, uint32_t magic,
                                const char* kind, const std::string& path) {
  // Prologue, header size, header CRC and file CRC at minimum.
  if (contents.size() < 28) {
    return DataLossError(std::string(kind) + " file truncated: " + path);
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  UCP_ASSIGN_OR_RETURN(uint32_t version, CheckPrologue(data, magic, kind, path));
  const size_t body_size = contents.size() - 4;
  if (LoadU32(data + body_size) != Crc32(data, body_size)) {
    return DataLossError(std::string(kind) + " CRC mismatch in " + path);
  }
  if (version != kFormatVersion) {
    return FailedPreconditionError("unsupported " + std::string(kind) + " format version " +
                                   std::to_string(version) + " in " + path + " (expected " +
                                   std::to_string(kFormatVersion) + ")");
  }
  const uint64_t header_bytes = LoadU64(data + 12);
  if (header_bytes < 24 || header_bytes + 4 > contents.size()) {
    return DataLossError(std::string(kind) + " header size out of range in " + path);
  }
  return header_bytes;
}

// Reads the full contents of a source into memory for a whole-file check.
Result<std::string> SlurpSource(ByteSource& source) {
  std::string contents(source.size(), '\0');
  if (!contents.empty()) {
    UCP_RETURN_IF_ERROR(source.ReadAt(0, contents.data(), contents.size()));
  }
  CountRead(contents.size());
  return contents;
}

// The first read of a file about to be range-read: up to kHeadReadBytes from offset 0,
// which holds the prologue, the header size and, unless the header is larger, the whole
// header prefix — one positional read (one READ_RANGE round trip over a remote source).
constexpr size_t kHeadReadBytes = 4096;

Result<std::vector<uint8_t>> ReadHead(ByteSource& source) {
  std::vector<uint8_t> head(static_cast<size_t>(
      std::min<uint64_t>(source.size(), kHeadReadBytes)));
  UCP_RETURN_IF_ERROR(source.ReadAt(0, head.data(), head.size()));
  CountRead(head.size());
  return head;
}

// The head of a v3 file: bytes [0, max(header_bytes, head read)), so its header prefix
// and whatever payload bytes the head read carried past it.
struct V3Head {
  std::vector<uint8_t> bytes;
  uint64_t header_bytes = 0;
};

// Completes the [0, header_bytes) prefix of a v3 file (prologue already checked) from its
// head, reading only what a header larger than the head still needs.
Result<V3Head> CompleteV3Prefix(ByteSource& f, std::vector<uint8_t> head, const char* kind) {
  if (f.size() < 24) {
    return DataLossError(std::string(kind) + " file truncated: " + f.name());
  }
  V3Head out;
  out.header_bytes = LoadU64(head.data() + 12);
  if (out.header_bytes < 24 || out.header_bytes + 4 > f.size()) {
    return DataLossError(std::string(kind) + " header size out of range in " + f.name());
  }
  const size_t have = head.size();
  if (out.header_bytes > have) {
    head.resize(static_cast<size_t>(out.header_bytes));
    UCP_RETURN_IF_ERROR(f.ReadAt(have, head.data() + have, head.size() - have));
    CountRead(head.size() - have);
  }
  out.bytes = std::move(head);
  return out;
}

// The head of a v3 file about to be range-read, prologue checked. A version field other
// than kFormatVersion takes the cold path — one whole-file read — so the trailing CRC can
// tell bit rot (kDataLoss) from a file of another format version (kFailedPrecondition).
Result<V3Head> ReadV3Head(ByteSource& source, uint32_t magic, const char* kind) {
  if (source.size() < 16) {
    return DataLossError(std::string(kind) + " file truncated: " + source.name());
  }
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> head, ReadHead(source));
  UCP_ASSIGN_OR_RETURN(uint32_t version,
                       CheckPrologue(head.data(), magic, kind, source.name()));
  if (version == kFormatVersion) {
    return CompleteV3Prefix(source, std::move(head), kind);
  }
  UCP_ASSIGN_OR_RETURN(std::string contents, SlurpSource(source));
  UCP_RETURN_IF_ERROR(CheckWholeFile(contents, magic, kind, source.name()).status());
  return DataLossError(std::string(kind) + " file changed while being read: " +
                       source.name());
}

// Parsed v3 tensor-file header prefix (prefix = bytes [0, header_bytes), including its CRC).
struct V3TensorHeader {
  TensorFileInfo info;
  std::vector<uint32_t> chunk_crcs;
  uint64_t payload_offset = 0;  // == header_bytes
};

Status CheckHeaderCrc(const uint8_t* prefix, uint64_t size, const char* kind,
                      const std::string& path) {
  if (size < 24) {
    return DataLossError(std::string(kind) + " header truncated: " + path);
  }
  if (Crc32(prefix, static_cast<size_t>(size - 4)) != LoadU32(prefix + size - 4)) {
    return DataLossError(std::string(kind) + " header CRC mismatch in " + path);
  }
  return OkStatus();
}

Result<std::pair<ParsedHeader, std::pair<uint32_t, std::vector<uint32_t>>>> GetV3Entry(
    ByteReader& r, const std::string& what) {
  UCP_ASSIGN_OR_RETURN(ParsedHeader h, GetHeaderAndSize(r));
  UCP_ASSIGN_OR_RETURN(uint32_t chunk_bytes, r.GetU32());
  if (chunk_bytes == 0) {
    return DataLossError("zero chunk size in " + what);
  }
  UCP_ASSIGN_OR_RETURN(uint32_t num_chunks, r.GetU32());
  if (num_chunks != NumChunksFor(h.payload_bytes, chunk_bytes)) {
    return DataLossError("chunk count does not match payload size in " + what);
  }
  std::vector<uint32_t> crcs(num_chunks);
  for (uint32_t i = 0; i < num_chunks; ++i) {
    UCP_ASSIGN_OR_RETURN(crcs[i], r.GetU32());
  }
  return std::make_pair(std::move(h), std::make_pair(chunk_bytes, std::move(crcs)));
}

Result<V3TensorHeader> ParseV3TensorPrefix(const uint8_t* prefix, uint64_t size,
                                           const std::string& path) {
  UCP_RETURN_IF_ERROR(CheckHeaderCrc(prefix, size, "tensor", path));
  ByteReader r(prefix, static_cast<size_t>(size - 4));
  (void)r.GetU32();  // magic
  (void)r.GetU32();  // endian
  (void)r.GetU32();  // version
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes, r.GetU64());
  if (header_bytes != size) {
    return DataLossError("inconsistent header size in " + path);
  }
  UCP_ASSIGN_OR_RETURN(auto entry, GetV3Entry(r, path));
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in tensor header of " + path);
  }
  V3TensorHeader h;
  h.info.shape = std::move(entry.first.shape);
  h.info.dtype = entry.first.dtype;
  h.info.payload_bytes = entry.first.payload_bytes;
  h.info.format_version = 3;
  h.info.chunk_bytes = entry.second.first;
  h.info.num_chunks = static_cast<uint32_t>(entry.second.second.size());
  h.chunk_crcs = std::move(entry.second.second);
  h.payload_offset = size;
  return h;
}

struct V3BundleHeader {
  Json meta;
  std::vector<std::pair<std::string, TensorFileInfo>> entries;
  struct Member {
    uint64_t payload_offset;
    uint32_t chunk_bytes;
    std::vector<uint32_t> chunk_crcs;
  };
  std::vector<Member> members;
  uint64_t payload_end = 0;  // absolute offset just past the last payload
};

Result<V3BundleHeader> ParseV3BundlePrefix(const uint8_t* prefix, uint64_t size,
                                           const std::string& path) {
  UCP_RETURN_IF_ERROR(CheckHeaderCrc(prefix, size, "bundle", path));
  ByteReader r(prefix, static_cast<size_t>(size - 4));
  (void)r.GetU32();  // magic
  (void)r.GetU32();  // endian
  (void)r.GetU32();  // version
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes, r.GetU64());
  if (header_bytes != size) {
    return DataLossError("inconsistent header size in " + path);
  }
  V3BundleHeader out;
  UCP_ASSIGN_OR_RETURN(std::string meta_text, r.GetString());
  UCP_ASSIGN_OR_RETURN(out.meta, Json::Parse(meta_text));
  UCP_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (count > r.remaining()) {  // each entry takes well over one byte
    return DataLossError("implausible bundle entry count in " + path);
  }
  uint64_t expected_offset = header_bytes;
  for (uint32_t i = 0; i < count; ++i) {
    UCP_ASSIGN_OR_RETURN(std::string name, r.GetString());
    UCP_ASSIGN_OR_RETURN(auto entry, GetV3Entry(r, path + ":" + name));
    UCP_ASSIGN_OR_RETURN(uint64_t payload_offset, r.GetU64());
    if (payload_offset != expected_offset) {
      return DataLossError("non-contiguous payload offsets in " + path);
    }
    expected_offset += entry.first.payload_bytes;
    TensorFileInfo info;
    info.shape = std::move(entry.first.shape);
    info.dtype = entry.first.dtype;
    info.payload_bytes = entry.first.payload_bytes;
    info.format_version = 3;
    info.chunk_bytes = entry.second.first;
    info.num_chunks = static_cast<uint32_t>(entry.second.second.size());
    out.entries.emplace_back(std::move(name), std::move(info));
    out.members.push_back(V3BundleHeader::Member{payload_offset, entry.second.first,
                                                 std::move(entry.second.second)});
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in bundle header of " + path);
  }
  out.payload_end = expected_offset;
  return out;
}

// Seeds `window` with the whole payload chunks the head read carried, CRC-checking each, so
// a small atom needs no read past its head. `payloads` are in file order and contiguous
// from header_bytes on (both parsers check this). Seeding stops at the first chunk the head
// does not hold whole or that fails its CRC; that chunk stays unverified, so its kDataLoss
// surfaces, with the usual message, on the first read that touches it rather than at Open.
void SeedWindowFromHead(const V3Head& head, ChunkedPayload* payloads, size_t count,
                        VerifiedWindow& window) {
  uint64_t end = head.header_bytes;
  bool carried = true;
  for (size_t i = 0; carried && i < count; ++i) {
    ChunkedPayload& p = payloads[i];
    for (size_t ci = 0; carried && ci < p.crcs.size(); ++ci) {
      const uint64_t chunk_end = std::min<uint64_t>(end + p.chunk_bytes, p.offset + p.bytes);
      carried = chunk_end <= head.bytes.size() &&
                Crc32(head.bytes.data() + end, static_cast<size_t>(chunk_end - end)) ==
                    p.crcs[ci];
      if (carried) {
        p.verified[ci] = true;
        ChunksVerifiedCounter().Add(1);
        end = chunk_end;
      }
    }
  }
  window.begin = head.header_bytes;
  window.end = end;
  window.bytes.assign(head.bytes.begin() + static_cast<ptrdiff_t>(head.header_bytes),
                      head.bytes.begin() + static_cast<ptrdiff_t>(end));
}

// The chunk-verifying positional read shared by TensorFileView and BundleFileView: decodes
// elements [elem_begin, elem_begin + elem_count) of payload `p` of `f`. Per chunk the range
// touches: inside the verified window, it is decoded from memory; unverified, it is read
// whole, its CRC checked once, and it becomes the window; verified but outside the window,
// only the overlap is read.
Status ReadChunkedRange(ByteSource& f, ChunkedPayload& p, VerifiedWindow& window,
                        std::vector<uint8_t>& scratch, DType dtype, int64_t elem_begin,
                        int64_t elem_count, float* out, const std::string& what) {
  if (elem_count == 0) {
    return OkStatus();
  }
  const uint64_t esize = DTypeSize(dtype);
  const uint64_t byte_begin = static_cast<uint64_t>(elem_begin) * esize;
  const uint64_t byte_end = byte_begin + static_cast<uint64_t>(elem_count) * esize;
  const size_t first_chunk = static_cast<size_t>(byte_begin / p.chunk_bytes);
  const size_t last_chunk = static_cast<size_t>((byte_end - 1) / p.chunk_bytes);
  float* dst = out;
  for (size_t ci = first_chunk; ci <= last_chunk; ++ci) {
    // Absolute file offsets from here on.
    const uint64_t chunk_start = p.offset + ci * static_cast<uint64_t>(p.chunk_bytes);
    const uint64_t chunk_end =
        std::min<uint64_t>(chunk_start + p.chunk_bytes, p.offset + p.bytes);
    const uint64_t overlap_begin = std::max(p.offset + byte_begin, chunk_start);
    const uint64_t overlap_end = std::min(p.offset + byte_end, chunk_end);
    const size_t overlap_bytes = static_cast<size_t>(overlap_end - overlap_begin);
    const uint8_t* src = nullptr;
    if (window.begin <= overlap_begin && overlap_end <= window.end) {
      src = window.bytes.data() + (overlap_begin - window.begin);
    } else if (!p.verified[ci]) {
      const size_t chunk_size = static_cast<size_t>(chunk_end - chunk_start);
      window.begin = window.end = 0;  // its buffer is about to hold unverified bytes
      window.bytes.resize(chunk_size);
      UCP_RETURN_IF_ERROR(f.ReadAt(chunk_start, window.bytes.data(), chunk_size));
      CountRead(chunk_size);
      if (Crc32(window.bytes.data(), chunk_size) != p.crcs[ci]) {
        return DataLossError(ChunkCrcErr(what, ci, p.crcs.size()));
      }
      p.verified[ci] = true;
      ChunksVerifiedCounter().Add(1);
      window.begin = chunk_start;
      window.end = chunk_end;
      src = window.bytes.data() + (overlap_begin - chunk_start);
    } else {
      if (scratch.size() < overlap_bytes) {
        scratch.resize(overlap_bytes);
      }
      UCP_RETURN_IF_ERROR(f.ReadAt(overlap_begin, scratch.data(), overlap_bytes));
      CountRead(overlap_bytes);
      src = scratch.data();
    }
    DecodeElements(src, dtype, static_cast<int64_t>(overlap_bytes / esize), dst);
    dst += overlap_bytes / esize;
  }
  return OkStatus();
}

// Whole-file readers (LoadTensor/LoadBundle) and deep verify share these: the whole-file
// check, the header prefix, and every payload chunk CRC.
Result<V3TensorHeader> VerifyWholeTensor(const std::string& contents, const std::string& path) {
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes,
                       CheckWholeFile(contents, kTensorMagic, "tensor", path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  UCP_ASSIGN_OR_RETURN(V3TensorHeader h, ParseV3TensorPrefix(data, header_bytes, path));
  if (header_bytes + h.info.payload_bytes + 4 != contents.size()) {
    return DataLossError("tensor file truncated: " + path);
  }
  UCP_RETURN_IF_ERROR(VerifyChunks(data + header_bytes, h.info.payload_bytes,
                                   h.info.chunk_bytes, h.chunk_crcs, path));
  return h;
}

Result<V3BundleHeader> VerifyWholeBundle(const std::string& contents, const std::string& path) {
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes,
                       CheckWholeFile(contents, kBundleMagic, "bundle", path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h, ParseV3BundlePrefix(data, header_bytes, path));
  if (h.payload_end + 4 != contents.size()) {
    return DataLossError("bundle file truncated: " + path);
  }
  for (size_t i = 0; i < h.entries.size(); ++i) {
    const V3BundleHeader::Member& m = h.members[i];
    UCP_RETURN_IF_ERROR(VerifyChunks(data + m.payload_offset,
                                     h.entries[i].second.payload_bytes, m.chunk_bytes,
                                     m.chunk_crcs, path + ":" + h.entries[i].first));
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// IO stats.

TensorIoStats GetTensorIoStats() {
  TensorIoStats s;
  s.bytes_read = BytesReadCounter().Value();
  s.read_calls = ReadCallsCounter().Value();
  s.chunks_verified = ChunksVerifiedCounter().Value();
  return s;
}

void ResetTensorIoStats() {
  BytesReadCounter().Reset();
  ReadCallsCounter().Reset();
  ChunksVerifiedCounter().Reset();
}

// ---------------------------------------------------------------------------
// Single-tensor files.

Status SaveTensor(const std::string& path, const Tensor& tensor, DType dtype) {
  if (!tensor.defined()) {
    return InvalidArgumentError("SaveTensor of undefined tensor: " + path);
  }
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, SerializeTensor(tensor, dtype));
  return WriteFileAtomic(path, buf.data(), buf.size());
}

Result<std::vector<uint8_t>> SerializeTensor(const Tensor& tensor, DType dtype) {
  if (!tensor.defined()) {
    return InvalidArgumentError("SerializeTensor of undefined tensor");
  }
  std::vector<uint8_t> payload = EncodePayload(tensor, dtype);
  ByteWriter w;
  w.PutU32(kTensorMagic);
  w.PutU32(kEndianTag);
  w.PutU32(kFormatVersion);
  w.PutU64(0);  // header_bytes, patched by BuildV3
  PutHeader(w, tensor, dtype);
  w.PutU64(payload.size());
  const uint32_t payload_crc = PutChunkTable(w, payload, PickChunkBytes(payload.size()));
  return BuildV3(w, {&payload}, {payload_crc}, {});
}

Result<Tensor> LoadTensor(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  CountRead(contents.size());
  UCP_ASSIGN_OR_RETURN(V3TensorHeader h, VerifyWholeTensor(contents, path));
  Tensor t = Tensor::Zeros(h.info.shape);
  DecodeElements(reinterpret_cast<const uint8_t*>(contents.data()) + h.payload_offset,
                 h.info.dtype, t.numel(), t.data());
  return t;
}

Result<TensorFileInfo> StatTensor(const std::string& path) {
  // Reads only the header prefix (verified by its own CRC).
  UCP_ASSIGN_OR_RETURN(TensorFileView view, TensorFileView::Open(path));
  return view.info();
}

Status DeepVerifyTensorFile(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  CountRead(contents.size());
  return VerifyWholeTensor(contents, path).status();
}

Status DeepVerifyTensorFile(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(std::string contents, SlurpSource(*source));
  return VerifyWholeTensor(contents, source->name()).status();
}

// ---------------------------------------------------------------------------
// TensorFileView.

Result<TensorFileView> TensorFileView::Open(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, FileByteSource::Open(path));
  return Open(std::move(source));
}

Result<TensorFileView> TensorFileView::Open(std::unique_ptr<ByteSource> source) {
  const std::string path = source->name();
  UCP_ASSIGN_OR_RETURN(V3Head head, ReadV3Head(*source, kTensorMagic, "tensor"));
  UCP_ASSIGN_OR_RETURN(V3TensorHeader h,
                       ParseV3TensorPrefix(head.bytes.data(), head.header_bytes, path));
  if (head.header_bytes + h.info.payload_bytes + 4 != source->size()) {
    return DataLossError("tensor file truncated: " + path);
  }
  TensorFileView view;
  view.path_ = path;
  view.payload_.offset = h.payload_offset;
  view.payload_.bytes = h.info.payload_bytes;
  view.payload_.chunk_bytes = h.info.chunk_bytes;
  view.payload_.verified.assign(h.chunk_crcs.size(), false);
  view.payload_.crcs = std::move(h.chunk_crcs);
  view.info_ = std::move(h.info);
  SeedWindowFromHead(head, &view.payload_, 1, view.window_);
  view.source_ = std::move(source);
  return view;
}

Status TensorFileView::ReadElements(int64_t elem_begin, int64_t elem_count, float* out) {
  if (elem_begin < 0 || elem_count < 0 || elem_begin + elem_count > numel()) {
    return InvalidArgumentError("ReadElements range [" + std::to_string(elem_begin) + ", " +
                                std::to_string(elem_begin + elem_count) +
                                ") out of bounds for " + path_);
  }
  return ReadChunkedRange(*source_, payload_, window_, scratch_, info_.dtype, elem_begin,
                          elem_count, out, path_);
}

Result<Tensor> TensorFileView::ReadRange(int64_t row_begin, int64_t row_count) {
  if (row_begin < 0 || row_count < 0 || row_begin + row_count > rows()) {
    return InvalidArgumentError("ReadRange rows [" + std::to_string(row_begin) + ", " +
                                std::to_string(row_begin + row_count) +
                                ") out of bounds for " + path_);
  }
  Shape out_shape;
  if (!info_.shape.empty()) {
    out_shape.push_back(row_count);
    out_shape.insert(out_shape.end(), info_.shape.begin() + 1, info_.shape.end());
  }
  Tensor t = Tensor::Zeros(std::move(out_shape));
  UCP_RETURN_IF_ERROR(
      ReadElements(row_begin * row_numel(), row_count * row_numel(), t.data()));
  return t;
}

Result<Tensor> TensorFileView::ReadAll() {
  Tensor t = Tensor::Zeros(info_.shape);
  UCP_RETURN_IF_ERROR(ReadElements(0, numel(), t.data()));
  return t;
}

// ---------------------------------------------------------------------------
// TensorBundle.

TensorBundle::TensorBundle(const TensorBundle& other)
    : tensors(other.tensors), meta(other.meta) {}

TensorBundle& TensorBundle::operator=(const TensorBundle& other) {
  if (this != &other) {
    tensors = other.tensors;
    meta = other.meta;
    std::lock_guard<std::mutex> lock(index_mu_);
    index_.clear();
  }
  return *this;
}

TensorBundle::TensorBundle(TensorBundle&& other) noexcept
    : tensors(std::move(other.tensors)), meta(std::move(other.meta)) {}

TensorBundle& TensorBundle::operator=(TensorBundle&& other) noexcept {
  if (this != &other) {
    tensors = std::move(other.tensors);
    meta = std::move(other.meta);
    std::lock_guard<std::mutex> lock(index_mu_);
    index_.clear();
  }
  return *this;
}

void TensorBundle::Add(std::string name, Tensor t) {
  tensors.emplace_back(std::move(name), std::move(t));
  std::lock_guard<std::mutex> lock(index_mu_);
  index_.clear();  // rebuilt lazily on the next Find
}

const Tensor* TensorBundle::Find(const std::string& name) const {
  if (tensors.empty()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (index_.empty()) {
      for (size_t i = 0; i < tensors.size(); ++i) {
        index_.emplace(tensors[i].first, i);  // emplace keeps the first duplicate
      }
    }
    auto it = index_.find(name);
    if (it == index_.end()) {
      if (index_.size() == tensors.size()) {
        return nullptr;
      }
    } else if (it->second < tensors.size() && tensors[it->second].first == name) {
      return &tensors[it->second].second;
    }
    // The index is stale (tensors was edited directly, e.g. the snapshot writer's
    // resize-then-Add); rebuild once and retry.
    index_.clear();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Bundle files.

Result<std::vector<uint8_t>> SerializeBundle(const TensorBundle& bundle, DType dtype) {
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(bundle.tensors.size());
  for (const auto& [name, tensor] : bundle.tensors) {
    if (!tensor.defined()) {
      return InvalidArgumentError("SerializeBundle of undefined tensor " + name);
    }
    payloads.push_back(EncodePayload(tensor, dtype));
  }
  ByteWriter w;
  w.PutU32(kBundleMagic);
  w.PutU32(kEndianTag);
  w.PutU32(kFormatVersion);
  w.PutU64(0);  // header_bytes, patched by BuildV3
  w.PutString(bundle.meta.Dump());
  w.PutU32(static_cast<uint32_t>(bundle.tensors.size()));
  std::vector<size_t> offset_positions;
  std::vector<const std::vector<uint8_t>*> payload_ptrs;
  std::vector<uint32_t> payload_crcs;
  for (size_t i = 0; i < bundle.tensors.size(); ++i) {
    const auto& [name, tensor] = bundle.tensors[i];
    w.PutString(name);
    PutHeader(w, tensor, dtype);
    w.PutU64(payloads[i].size());
    payload_crcs.push_back(PutChunkTable(w, payloads[i], PickChunkBytes(payloads[i].size())));
    offset_positions.push_back(w.size());
    w.PutU64(0);  // payload_offset, patched by BuildV3
    payload_ptrs.push_back(&payloads[i]);
  }
  return BuildV3(w, payload_ptrs, payload_crcs, offset_positions);
}

Status SaveBundle(const std::string& path, const TensorBundle& bundle, DType dtype) {
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, SerializeBundle(bundle, dtype));
  return WriteFileAtomic(path, buf.data(), buf.size());
}

Result<TensorBundle> LoadBundle(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  CountRead(contents.size());
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h, VerifyWholeBundle(contents, path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  TensorBundle bundle;
  bundle.meta = std::move(h.meta);
  for (size_t i = 0; i < h.entries.size(); ++i) {
    const TensorFileInfo& info = h.entries[i].second;
    Tensor t = Tensor::Zeros(info.shape);
    DecodeElements(data + h.members[i].payload_offset, info.dtype, t.numel(), t.data());
    bundle.Add(h.entries[i].first, std::move(t));
  }
  return bundle;
}

Result<BundleInfo> StatBundle(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, FileByteSource::Open(path));
  return StatBundle(std::move(source));
}

Result<BundleInfo> StatBundle(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(BundleFileView view, BundleFileView::Open(std::move(source)));
  BundleInfo info;
  info.meta = view.meta();
  info.entries = view.entries();
  return info;
}

Status DeepVerifyBundleFile(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  CountRead(contents.size());
  return VerifyWholeBundle(contents, path).status();
}

Status DeepVerifyBundleFile(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(std::string contents, SlurpSource(*source));
  return VerifyWholeBundle(contents, source->name()).status();
}

// ---------------------------------------------------------------------------
// BundleFileView.

Result<BundleFileView> BundleFileView::Open(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, FileByteSource::Open(path));
  return Open(std::move(source));
}

Result<BundleFileView> BundleFileView::Open(std::unique_ptr<ByteSource> source) {
  const std::string path = source->name();
  UCP_ASSIGN_OR_RETURN(V3Head head, ReadV3Head(*source, kBundleMagic, "bundle"));
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h,
                       ParseV3BundlePrefix(head.bytes.data(), head.header_bytes, path));
  if (h.payload_end + 4 != source->size()) {
    return DataLossError("bundle file truncated: " + path);
  }
  BundleFileView view;
  view.path_ = path;
  view.meta_ = std::move(h.meta);
  view.entries_ = std::move(h.entries);
  for (size_t i = 0; i < h.members.size(); ++i) {
    V3BundleHeader::Member& m = h.members[i];
    ChunkedPayload member;
    member.offset = m.payload_offset;
    member.bytes = view.entries_[i].second.payload_bytes;
    member.chunk_bytes = m.chunk_bytes;
    member.verified.assign(m.chunk_crcs.size(), false);
    member.crcs = std::move(m.chunk_crcs);
    view.members_.push_back(std::move(member));
  }
  SeedWindowFromHead(head, view.members_.data(), view.members_.size(), view.window_);
  view.source_ = std::move(source);
  return view;
}

int BundleFileView::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Result<Tensor> BundleFileView::ReadTensor(const std::string& name) {
  int idx = IndexOf(name);
  if (idx < 0) {
    return NotFoundError("bundle " + path_ + " has no tensor " + name);
  }
  const TensorFileInfo& info = entries_[static_cast<size_t>(idx)].second;
  Tensor t = Tensor::Zeros(info.shape);
  UCP_RETURN_IF_ERROR(
      ReadTensorElements(static_cast<size_t>(idx), 0, t.numel(), t.data()));
  return t;
}

Status BundleFileView::ReadTensorElements(size_t entry_index, int64_t elem_begin,
                                          int64_t elem_count, float* out) {
  if (entry_index >= entries_.size()) {
    return InvalidArgumentError("bundle entry index out of range for " + path_);
  }
  const TensorFileInfo& info = entries_[entry_index].second;
  if (elem_begin < 0 || elem_count < 0 ||
      elem_begin + elem_count > ShapeNumel(info.shape)) {
    return InvalidArgumentError("ReadTensorElements range out of bounds for " + path_ + ":" +
                                entries_[entry_index].first);
  }
  return ReadChunkedRange(*source_, members_[entry_index], window_, scratch_, info.dtype,
                          elem_begin, elem_count, out,
                          path_ + ":" + entries_[entry_index].first);
}

// ---------------------------------------------------------------------------
// Chunk index (server-side READ_RANGE verification).

Result<std::optional<FileChunkIndex>> ReadFileChunkIndex(ByteSource& source) {
  if (source.size() < 16) {
    return std::optional<FileChunkIndex>(std::nullopt);
  }
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> head, ReadHead(source));
  const uint32_t magic = LoadU32(head.data());
  const bool is_tensor = magic == kTensorMagic;
  if (!is_tensor && magic != kBundleMagic) {
    return std::optional<FileChunkIndex>(std::nullopt);
  }
  const char* kind = is_tensor ? "tensor" : "bundle";
  UCP_ASSIGN_OR_RETURN(uint32_t version, CheckPrologue(head.data(), magic, kind, source.name()));
  if (version != kFormatVersion) {
    // No chunk table to verify against; the reader's own whole-file check classifies it.
    return std::optional<FileChunkIndex>(std::nullopt);
  }
  UCP_ASSIGN_OR_RETURN(V3Head v3, CompleteV3Prefix(source, std::move(head), kind));
  const uint8_t* prefix = v3.bytes.data();
  const uint64_t header_bytes = v3.header_bytes;
  FileChunkIndex index;
  if (is_tensor) {
    UCP_ASSIGN_OR_RETURN(V3TensorHeader h,
                         ParseV3TensorPrefix(prefix, header_bytes, source.name()));
    if (header_bytes + h.info.payload_bytes + 4 != source.size()) {
      return DataLossError("tensor file truncated: " + source.name());
    }
    ChunkRegion region;
    region.begin = header_bytes;
    region.end = header_bytes + h.info.payload_bytes;
    region.chunk_bytes = h.info.chunk_bytes;
    region.chunk_crcs = std::move(h.chunk_crcs);
    index.regions.push_back(std::move(region));
  } else {
    UCP_ASSIGN_OR_RETURN(V3BundleHeader h,
                         ParseV3BundlePrefix(prefix, header_bytes, source.name()));
    if (h.payload_end + 4 != source.size()) {
      return DataLossError("bundle file truncated: " + source.name());
    }
    for (size_t i = 0; i < h.members.size(); ++i) {
      ChunkRegion region;
      region.begin = h.members[i].payload_offset;
      region.end = h.members[i].payload_offset + h.entries[i].second.payload_bytes;
      region.chunk_bytes = h.members[i].chunk_bytes;
      region.chunk_crcs = std::move(h.members[i].chunk_crcs);
      index.regions.push_back(std::move(region));
    }
  }
  return std::optional<FileChunkIndex>(std::move(index));
}

}  // namespace ucp
