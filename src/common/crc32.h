// CRC32 (ISO-HDLC polynomial, same as zlib's crc32) for checkpoint integrity checking.
//
// The kernel is picked once per process from what the CPU supports (PCLMULQDQ folding on
// x86 with PCLMUL + SSE4.1, slicing-by-8 elsewhere); every kernel computes the same value.
// Each Crc32Update call adds its byte count to the `common.crc32.bytes` counter, so the
// counter over the bytes saved is the number of CRC passes a save made over each byte.

#ifndef UCP_SRC_COMMON_CRC32_H_
#define UCP_SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ucp {

// One-shot CRC of a buffer.
uint32_t Crc32(const void* data, size_t size);

// Incremental form: crc = Crc32Update(crc, chunk, n) starting from Crc32Init().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);
uint32_t Crc32Finalize(uint32_t crc);

// Finished CRCs of two adjacent byte strings A and B compose without touching the bytes:
// Crc32Combine(crc(A), crc(B), |B|) == crc(A || B), and the inverse strips a known prefix,
// Crc32StripPrefix(crc(A || B), crc(A), |B|) == crc(B). Both cost O(log |B|).
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);
uint32_t Crc32StripPrefix(uint32_t crc_ab, uint32_t crc_a, uint64_t len_b);

}  // namespace ucp

#endif  // UCP_SRC_COMMON_CRC32_H_
