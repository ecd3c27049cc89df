#include "deflate/fixed_tables.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace lzss::deflate {
namespace {

// RFC 1951 section 3.2.6: the fixed literal/length code.
TEST(FixedLitLen, CodeLengthBands) {
  const auto& c = fixed_litlen_code();
  for (unsigned s = 0; s <= 143; ++s) EXPECT_EQ(c.bits[s], 8) << s;
  for (unsigned s = 144; s <= 255; ++s) EXPECT_EQ(c.bits[s], 9) << s;
  for (unsigned s = 256; s <= 279; ++s) EXPECT_EQ(c.bits[s], 7) << s;
  for (unsigned s = 280; s <= 287; ++s) EXPECT_EQ(c.bits[s], 8) << s;
}

TEST(FixedLitLen, CanonicalCodeAnchors) {
  const auto& c = fixed_litlen_code();
  EXPECT_EQ(c.code[0], 0b00110000u);     // literal 0 -> 00110000
  EXPECT_EQ(c.code[143], 0b10111111u);   // literal 143 -> 10111111
  EXPECT_EQ(c.code[144], 0b110010000u);  // literal 144 -> 9 bits
  EXPECT_EQ(c.code[255], 0b111111111u);  // literal 255 -> all ones
  EXPECT_EQ(c.code[256], 0b0000000u);    // end-of-block -> 7 zero bits
  EXPECT_EQ(c.code[279], 0b0010111u);
  EXPECT_EQ(c.code[280], 0b11000000u);
  EXPECT_EQ(c.code[287], 0b11000111u);
}

TEST(FixedDistance, FiveBitCodes) {
  const auto& d = fixed_distance_code();
  for (unsigned s = 0; s < 30; ++s) {
    EXPECT_EQ(d.bits[s], 5) << s;
    EXPECT_EQ(d.code[s], s) << s;  // canonical: code == symbol for uniform length
  }
}

TEST(LengthCode, ExactBandMapping) {
  // (length, symbol, extra_bits, extra_value)
  const struct {
    std::uint32_t length, symbol, extra_bits, extra_value;
  } cases[] = {
      {3, 257, 0, 0},   {4, 258, 0, 0},   {10, 264, 0, 0}, {11, 265, 1, 0},
      {12, 265, 1, 1},  {13, 266, 1, 0},  {18, 268, 1, 1}, {19, 269, 2, 0},
      {22, 269, 2, 3},  {35, 273, 3, 0},  {66, 276, 3, 7}, {114, 279, 4, 15},
      {115, 280, 4, 0}, {130, 280, 4, 15}, {131, 281, 5, 0}, {257, 284, 5, 30},
      {258, 285, 0, 0},
  };
  for (const auto& c : cases) {
    const auto lc = length_code(c.length);
    EXPECT_EQ(lc.symbol, c.symbol) << "len " << c.length;
    EXPECT_EQ(lc.extra_bits, c.extra_bits) << "len " << c.length;
    EXPECT_EQ(lc.extra_value, c.extra_value) << "len " << c.length;
  }
}

TEST(LengthCode, EveryLengthReconstructs) {
  for (std::uint32_t len = 3; len <= 258; ++len) {
    const auto lc = length_code(len);
    EXPECT_EQ(length_base(lc.symbol) + lc.extra_value, len);
    EXPECT_EQ(length_extra_bits(lc.symbol), lc.extra_bits);
    EXPECT_LT(lc.extra_value, 1u << lc.extra_bits << (lc.extra_bits == 0 ? 0 : 0));
  }
}

TEST(DistanceCode, ExactBandMapping) {
  const struct {
    std::uint32_t distance, symbol, extra_bits, extra_value;
  } cases[] = {
      {1, 0, 0, 0},      {2, 1, 0, 0},      {3, 2, 0, 0},     {4, 3, 0, 0},
      {5, 4, 1, 0},      {6, 4, 1, 1},      {7, 5, 1, 0},     {8, 5, 1, 1},
      {9, 6, 2, 0},      {12, 6, 2, 3},     {13, 7, 2, 0},    {24, 8, 3, 7},
      {25, 9, 3, 0},     {192, 14, 6, 63},  {193, 15, 6, 0},  {1024, 19, 8, 255},
      {1025, 20, 9, 0},  {4096, 23, 10, 1023}, {4097, 24, 11, 0}, {24576, 28, 13, 8191},
      {24577, 29, 13, 0}, {32768, 29, 13, 8191},
  };
  for (const auto& c : cases) {
    const auto dc = distance_code(c.distance);
    EXPECT_EQ(dc.symbol, c.symbol) << "dist " << c.distance;
    EXPECT_EQ(dc.extra_bits, c.extra_bits) << "dist " << c.distance;
    EXPECT_EQ(dc.extra_value, c.extra_value) << "dist " << c.distance;
  }
}

TEST(DistanceCode, EveryDistanceReconstructs) {
  for (std::uint32_t d = 1; d <= 32768; ++d) {
    const auto dc = distance_code(d);
    EXPECT_EQ(distance_base(dc.symbol) + dc.extra_value, d);
    EXPECT_EQ(distance_extra_bits(dc.symbol), dc.extra_bits);
  }
}

TEST(DistanceCode, BeyondDeflateReachIsSymbol29) {
  // A 64 KiB dictionary's tokens reach 65535; the estimators size them with
  // distance_code(), which must stay in its tables and keep them on code 29.
  for (const std::uint32_t d : {32769u, 40000u, 49152u, 65535u}) {
    const auto dc = distance_code(d);
    EXPECT_EQ(dc.symbol, 29u) << "dist " << d;
    EXPECT_EQ(dc.extra_bits, 13u) << "dist " << d;
    EXPECT_EQ(dc.extra_value, d - 24577u) << "dist " << d;
  }
  EXPECT_THROW((void)checked_distance_code(32769), std::invalid_argument);
}

TEST(FixedLitLen, PrefixFreeProperty) {
  // No code may be a prefix of another (checked over the fixed table by
  // comparing aligned prefixes of the canonical values).
  const auto& c = fixed_litlen_code();
  for (unsigned a = 0; a < kNumLitLenSymbols; ++a) {
    for (unsigned b = a + 1; b < kNumLitLenSymbols; ++b) {
      const unsigned la = c.bits[a], lb = c.bits[b];
      if (la == 0 || lb == 0) continue;
      const unsigned l = std::min(la, lb);
      EXPECT_NE(c.code[a] >> (la - l), c.code[b] >> (lb - l))
          << "symbols " << a << " and " << b;
    }
  }
}

}  // namespace
}  // namespace lzss::deflate
