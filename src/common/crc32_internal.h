// The CRC32 kernels behind Crc32Update, exposed so tests can hold each one against the
// bytewise reference. Every kernel maps a running (un-finalized) CRC state and a buffer to
// the next state, exactly like Crc32Update.

#ifndef UCP_SRC_COMMON_CRC32_INTERNAL_H_
#define UCP_SRC_COMMON_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace ucp {
namespace crc32_internal {

// One table lookup per byte: the reference every faster kernel must agree with.
uint32_t UpdateBytewise(uint32_t crc, const uint8_t* p, size_t n);

// Eight table lookups per 8-byte word (portable).
uint32_t UpdateSlicing8(uint32_t crc, const uint8_t* p, size_t n);

// Carry-less multiplication folding 64 bytes per step, slicing-by-8 for the tail. Call it
// only when ClmulSupported() is true.
bool ClmulSupported();
uint32_t UpdateClmul(uint32_t crc, const uint8_t* p, size_t n);

}  // namespace crc32_internal
}  // namespace ucp

#endif  // UCP_SRC_COMMON_CRC32_INTERNAL_H_
