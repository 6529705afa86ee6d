#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "src/common/crc32_internal.h"
#include "src/obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define UCP_CRC32_X86 1
#else
#define UCP_CRC32_X86 0
#endif

namespace ucp {
namespace {

// The reflected polynomial: bit 31 of a CRC word is the coefficient of x^0.
constexpr uint32_t kPoly = 0xEDB88320u;

// tables[0] is the bytewise table; tables[k][i] is the CRC of byte i followed by k zeros,
// so one 8-byte word is eight independent lookups.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables MakeSliceTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

alignas(64) constexpr SliceTables kTables = MakeSliceTables();

// a * b modulo the polynomial, both in the reflected representation.
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kPowers[k] = x^(2^k) mod P. The multiplicative order of x divides 2^32 - 1, so
// x^(2^(k+32)) = x^(2^k) and the index wraps.
constexpr std::array<uint32_t, 32> MakePowers() {
  std::array<uint32_t, 32> t{};
  uint32_t p = 1u << 30;  // x^1
  for (uint32_t& power : t) {
    power = p;
    p = MulModP(p, p);
  }
  return t;
}

constexpr std::array<uint32_t, 32> kPowers = MakePowers();

// x^(8 * len) mod P: multiplying a CRC by it appends `len` zero bytes to its message.
uint32_t ZeroBytesFactor(uint64_t len) {
  uint32_t p = 1u << 31;  // x^0
  for (unsigned k = 3; len != 0; len >>= 1, ++k) {
    if ((len & 1u) != 0) {
      p = MulModP(kPowers[k & 31u], p);
    }
  }
  return p;
}

#if UCP_CRC32_X86

#define UCP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

UCP_CLMUL_TARGET inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds a 128-bit lane forward by the distance `k` encodes and adds the next 16 bytes:
// acc.lo * k.lo ^ acc.hi * k.hi ^ next.
UCP_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// The folding kernel of Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), for the reflected polynomial. Needs n >= 64 and
// n % 16 == 0. Constants are x^k mod P for the fold distances, bit-reflected.
UCP_CLMUL_TARGET uint32_t FoldBlocks(uint32_t crc, const uint8_t* p, size_t n) {
  const __m128i k_512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 4 lanes: 64 bytes
  const __m128i k_128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 1 lane: 16 bytes
  const __m128i k_64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k_512, Load128(p));
    x1 = Fold(x1, k_512, Load128(p + 16));
    x2 = Fold(x2, k_512, Load128(p + 32));
    x3 = Fold(x3, k_512, Load128(p + 48));
  }
  __m128i x = Fold(Fold(Fold(x0, k_128, x1), k_128, x2), k_128, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = Fold(x, k_128, Load128(p));
  }
  // 128 -> 64 bits, then 64 -> 32 bits (each step also appends 32 zero bits).
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k_128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_64, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // UCP_CRC32_X86

using UpdateFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

struct Dispatch {
  UpdateFn update;
  obs::Counter* bytes;
};

// Chosen on first use and fixed for the life of the process.
const Dispatch& GetDispatch() {
  static const Dispatch dispatch = [] {
    const bool clmul = crc32_internal::ClmulSupported();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    // 1 = slicing-by-8, 2 = pclmul.
    registry.GetGauge("common.crc32.kernel").Set(clmul ? 2 : 1);
    return Dispatch{clmul ? &crc32_internal::UpdateClmul : &crc32_internal::UpdateSlicing8,
                    &registry.GetCounter("common.crc32.bytes")};
  }();
  return dispatch;
}

}  // namespace

namespace crc32_internal {

uint32_t UpdateBytewise(uint32_t crc, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t UpdateSlicing8(uint32_t crc, const uint8_t* p, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const uint32_t lo = static_cast<uint32_t>(word) ^ crc;
      const uint32_t hi = static_cast<uint32_t>(word >> 32);
      crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  return UpdateBytewise(crc, p, n);
}

bool ClmulSupported() {
#if UCP_CRC32_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t UpdateClmul(uint32_t crc, const uint8_t* p, size_t n) {
#if UCP_CRC32_X86
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    crc = FoldBlocks(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return UpdateSlicing8(crc, p, n);
}

}  // namespace crc32_internal

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Dispatch& dispatch = GetDispatch();
  dispatch.bytes->Add(size);
  return dispatch.update(crc, static_cast<const uint8_t*>(data), size);
}

uint32_t Crc32Finalize(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finalize(Crc32Update(Crc32Init(), data, size));
}

// With the same pre- and post-inversion (0xFFFFFFFF), crc(A || B) = crc(A) * x^(8|B|) ^
// crc(B): the inversions cancel, leaving the linear part.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  return MulModP(ZeroBytesFactor(len_b), crc_a) ^ crc_b;
}

uint32_t Crc32StripPrefix(uint32_t crc_ab, uint32_t crc_a, uint64_t len_b) {
  return MulModP(ZeroBytesFactor(len_b), crc_a) ^ crc_ab;
}

}  // namespace ucp
