#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string_view>
#include <vector>

#include "common/prng.hpp"

namespace lzss::checksum {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Reference values computed with the canonical public-domain algorithms.
TEST(Adler32, KnownVectors) {
  EXPECT_EQ(adler32(bytes("")), 0x00000001u);
  EXPECT_EQ(adler32(bytes("a")), 0x00620062u);
  EXPECT_EQ(adler32(bytes("abc")), 0x024d0127u);
  EXPECT_EQ(adler32(bytes("message digest")), 0x29750586u);
  EXPECT_EQ(adler32(bytes("Wikipedia")), 0x11E60398u);
}

TEST(Adler32, IncrementalMatchesOneShot) {
  rng::Xoshiro256 rng(3);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = rng.next_byte();

  Adler32 inc;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t chunk = 1 + rng.next_below(977);
    const std::size_t n = std::min(chunk, data.size() - i);
    inc.update({data.data() + i, n});
    i += n;
  }
  EXPECT_EQ(inc.value(), adler32(data));
}

TEST(Adler32, NmaxBoundary) {
  // 5552 bytes of 0xFF is the worst case before the modulo must run.
  std::vector<std::uint8_t> data(5552 * 3 + 17, 0xFF);
  Adler32 a;
  a.update(data);
  Adler32 b;
  for (const auto byte : data) b.update({&byte, 1});
  EXPECT_EQ(a.value(), b.value());
}

TEST(Adler32, ResetRestartsState) {
  Adler32 a;
  a.update(bytes("junk"));
  a.reset();
  a.update(bytes("abc"));
  EXPECT_EQ(a.value(), 0x024d0127u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  rng::Xoshiro256 rng(5);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = rng.next_byte();

  Crc32 inc;
  inc.update({data.data(), 1000});
  inc.update({data.data() + 1000, 3096});
  EXPECT_EQ(inc.value(), crc32(data));
}

// Bit-at-a-time CRC-32: shares no table with the code under test.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = rng.next_byte();
  return data;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // The 8-byte steps and the bytewise tail must agree with the reference
  // wherever the buffer starts relative to an 8-byte boundary.
  const auto data = random_bytes(1024 + 8, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::uint8_t> s(data.data() + offset, len);
      ASSERT_EQ(crc32(s), reference_crc32(s)) << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalSplitAtEveryOffset) {
  const auto data = random_bytes(300, 13);
  const std::uint32_t whole = reference_crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 inc;
    inc.update({data.data(), split});
    inc.update({data.data() + split, data.size() - split});
    ASSERT_EQ(inc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> data(128, 0x55);
  const std::uint32_t before = crc32(data);
  data[64] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc32, ResetRestartsState) {
  Crc32 c;
  c.update(bytes("junk"));
  c.reset();
  c.update(bytes("abc"));
  EXPECT_EQ(c.value(), 0x352441C2u);
}

}  // namespace
}  // namespace lzss::checksum
