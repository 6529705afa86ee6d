// CRC32: every kernel against the bytewise reference, Crc32Combine / Crc32StripPrefix
// against direct CRCs, and the tensor-file bytes the save path derives by combining.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/crc32_internal.h"
#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_file.h"

namespace ucp {
namespace {

using crc32_internal::UpdateBytewise;

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "hello universal checkpointing";
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, data, 5);
  crc = Crc32Update(crc, data + 5, 24);
  EXPECT_EQ(Crc32Finalize(crc), Crc32(data, 29));
}

TEST(Crc32Test, DetectsFlip) {
  std::string data = "some checkpoint payload";
  uint32_t before = Crc32(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), before);
}

uint32_t Reference(const uint8_t* p, size_t n) {
  return Crc32Finalize(UpdateBytewise(Crc32Init(), p, n));
}

// Runs `kernel` over random lengths 0 .. 1 MiB + 63 and start misalignments 0 .. 15 and
// holds it to the bytewise reference. Each buffer is its own allocation ending exactly at
// the last byte checked, so a kernel load past the end (an 8-byte stride or a 16-byte
// lane in the tail) is a heap overflow under AddressSanitizer.
template <typename Kernel>
void CheckKernel(Kernel kernel) {
  std::mt19937_64 rng(20250714);
  std::vector<size_t> lengths = {0, 1, 7, 8, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256};
  for (int i = 0; i < 40; ++i) {
    lengths.push_back(static_cast<size_t>(rng() % ((1u << 20) + 64)));
  }
  for (int i = 0; i < 40; ++i) {
    lengths.push_back(static_cast<size_t>(rng() % 1024));
  }
  for (size_t len : lengths) {
    const size_t misalign = static_cast<size_t>(rng() % 16);
    std::vector<uint8_t> buf(misalign + len);
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng());
    }
    const uint8_t* p = buf.data() + misalign;
    const uint32_t want = Reference(p, len);
    EXPECT_EQ(Crc32Finalize(kernel(Crc32Init(), p, len)), want)
        << "length " << len << " misalignment " << misalign;
    // A running state other than the initial one, and a split mid-buffer.
    const size_t cut = len == 0 ? 0 : static_cast<size_t>(rng() % len);
    EXPECT_EQ(Crc32Finalize(kernel(kernel(Crc32Init(), p, cut), p + cut, len - cut)), want)
        << "length " << len << " split at " << cut;
  }
}

TEST(Crc32Test, SlicingBy8AgreesWithBytewise) { CheckKernel(&crc32_internal::UpdateSlicing8); }

TEST(Crc32Test, ClmulAgreesWithBytewise) {
  if (!crc32_internal::ClmulSupported()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1; the pclmul kernel is never dispatched";
  }
  CheckKernel(&crc32_internal::UpdateClmul);
}

TEST(Crc32Test, DispatchedKernelAgreesAndIsCounted) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& bytes = registry.GetCounter("common.crc32.bytes");
  std::vector<uint8_t> buf(100003);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint64_t before = bytes.Value();
  EXPECT_EQ(Crc32(buf.data(), buf.size()), Reference(buf.data(), buf.size()));
  EXPECT_EQ(Crc32Update(Crc32Init(), buf.data(), 17), UpdateBytewise(Crc32Init(), buf.data(), 17));
  EXPECT_GE(bytes.Value() - before, buf.size() + 17);  // other threads may add more, never less
  // The kernel gauge was set on the first CRC: 2 = pclmul, 1 = slicing-by-8.
  EXPECT_EQ(registry.GetGauge("common.crc32.kernel").Value(),
            crc32_internal::ClmulSupported() ? 2 : 1);
}

TEST(Crc32Test, CombineAndStripPrefixMatchDirect) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> buf(3u << 20);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  std::vector<std::pair<size_t, size_t>> cases = {
      {0, 0}, {0, 1}, {1, 0}, {0, 4096}, {4096, 0}, {1, 1}, {9, 1u << 20}, {1u << 20, 1u << 20}};
  for (int i = 0; i < 30; ++i) {
    const size_t a = static_cast<size_t>(rng() % (1u << 20));
    cases.emplace_back(a, static_cast<size_t>(rng() % (buf.size() - a)));
  }
  for (const auto& [len_a, len_b] : cases) {
    const uint32_t crc_a = Crc32(buf.data(), len_a);
    const uint32_t crc_b = Crc32(buf.data() + len_a, len_b);
    const uint32_t crc_ab = Crc32(buf.data(), len_a + len_b);
    EXPECT_EQ(Crc32Combine(crc_a, crc_b, len_b), crc_ab) << len_a << " + " << len_b;
    EXPECT_EQ(Crc32StripPrefix(crc_ab, crc_a, len_b), crc_b) << len_a << " + " << len_b;
  }
  // The empty string's CRC is 0: combining with it is the identity on either side.
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Combine(0x12345678u, 0, 0), 0x12345678u);
  EXPECT_EQ(Crc32Combine(0, 0x12345678u, 4), 0x12345678u);
  // Lengths past 4 GiB wrap the table of x^(2^k) correctly: strip what combine added.
  const uint64_t huge = (uint64_t{1} << 40) + 12345;
  EXPECT_EQ(Crc32StripPrefix(Crc32Combine(0xCAFEF00Du, 0x0BADBEEFu, huge), 0xCAFEF00Du, huge),
            0x0BADBEEFu);
}

// ---------------- Tensor-file bytes ----------------

// Size and trailing file CRC of the files below as the bytewise-CRC writer made them.
constexpr size_t kGoldenTensorSize = 68329;
constexpr uint32_t kGoldenTensorCrc = 0xB17F1953u;
constexpr size_t kGoldenBundleSize = 77640;
constexpr uint32_t kGoldenBundleCrc = 0x2191A7D9u;

uint32_t LoadLe32(const std::vector<uint8_t>& b, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

uint64_t LoadLe64(const std::vector<uint8_t>& b, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

Tensor FixedTensor(Shape shape, float scale) {
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = scale * static_cast<float>((i * 7919) % 1013) - 3.25f;
  }
  return t;
}

// The header CRC and the trailing file CRC of a serialized file, recomputed with the
// bytewise reference over the bytes themselves.
void ExpectCrcFieldsMatchBytewise(const std::vector<uint8_t>& file) {
  ASSERT_GE(file.size(), 28u);
  const uint64_t header_bytes = LoadLe64(file, 12);
  ASSERT_LE(header_bytes + 4, file.size());
  EXPECT_EQ(LoadLe32(file, header_bytes - 4), Reference(file.data(), header_bytes - 4));
  EXPECT_EQ(LoadLe32(file, file.size() - 4), Reference(file.data(), file.size() - 4));
}

// A fixed tensor and a fixed bundle serialize to the bytes the bytewise-CRC writer made:
// the size and file_crc pinned here were produced by that writer, and the file CRC covers
// every byte, so the chunk table and the file CRC (now derived by combining the chunk
// CRCs) are unchanged too.
TEST(Crc32Test, TensorFileBytesMatchBytewiseWriter) {
  Result<std::vector<uint8_t>> tensor = SerializeTensor(FixedTensor({33, 517}, 0.5f));
  ASSERT_TRUE(tensor.ok()) << tensor.status();
  ExpectCrcFieldsMatchBytewise(*tensor);
  EXPECT_EQ(tensor->size(), kGoldenTensorSize);
  EXPECT_EQ(LoadLe32(*tensor, tensor->size() - 4), kGoldenTensorCrc);

  TensorBundle bundle;
  bundle.meta = Json(JsonObject{{"iteration", Json(int64_t{42})}, {"kind", Json("optim")}});
  bundle.Add("exp_avg", FixedTensor({300, 129}, 0.25f));
  bundle.Add("empty", Tensor::Zeros({0}));
  bundle.Add("step", FixedTensor({1}, 1.0f));
  Result<std::vector<uint8_t>> file = SerializeBundle(bundle, DType::kBF16);
  ASSERT_TRUE(file.ok()) << file.status();
  ExpectCrcFieldsMatchBytewise(*file);
  EXPECT_EQ(file->size(), kGoldenBundleSize);
  EXPECT_EQ(LoadLe32(*file, file->size() - 4), kGoldenBundleCrc);
}

}  // namespace
}  // namespace ucp
