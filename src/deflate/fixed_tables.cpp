#include "deflate/fixed_tables.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace lzss::deflate {
namespace {

// RFC 1951 section 3.2.5 tables.
constexpr std::array<std::uint16_t, 29> kLengthBase{
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLengthExtra{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                                    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::array<std::uint16_t, 30> kDistBase{
    1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
    33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra{0, 0, 0, 0, 1, 1, 2,  2,  3,  3,  4,  4,  5,  5, 6,
                                                  6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Code index (into kLengthBase) of every match length 0..258; 0..2 unused.
// 258 has a code of its own although code 27's extra bits could reach it.
constexpr std::array<std::uint8_t, 259> kLengthIndex = [] {
  std::array<std::uint8_t, 259> t{};
  for (std::uint8_t i = 0; i < kLengthBase.size(); ++i)
    for (unsigned len = kLengthBase[i]; len < t.size(); ++len) t[len] = i;
  return t;
}();

// The farthest distance a token can carry: a 64 KiB dictionary's reach.
constexpr std::uint32_t kMaxWindowDistance = 65535;

// zlib's dist_code: the code index of distance d is kDistIndex[d - 1] for
// d <= 256 and kDistIndex[256 + ((d - 1) >> 7)] above, since from code 16 on
// every code spans a multiple of 128 distances. The upper half extends to
// 65535 (a 64 KiB dictionary's reach) and maps everything past kMaxDistance
// to code 29, so the estimators can size such tokens without reading past
// the table.
constexpr std::array<std::uint8_t, 768> kDistIndex = [] {
  std::array<std::uint8_t, 768> t{};
  for (std::uint8_t i = 0; i < kDistBase.size(); ++i) {
    const std::uint32_t end = kDistBase[i] + (std::uint32_t{1} << kDistExtra[i]);
    for (std::uint32_t d = kDistBase[i]; d < end; ++d) {
      if (d <= 256) t[d - 1] = i;
      else t[256 + ((d - 1) >> 7)] = i;
    }
  }
  for (std::size_t k = 256 + (kMaxDistance >> 7); k < t.size(); ++k) t[k] = 29;
  return t;
}();
static_assert(256 + ((kMaxWindowDistance - 1) >> 7) < kDistIndex.size());

CanonicalCode build_canonical(const std::array<std::uint8_t, kNumLitLenSymbols>& lengths,
                              unsigned num_symbols) {
  // RFC 1951 section 3.2.2: codes of each length are assigned consecutively
  // in symbol order, starting where the previous length left off.
  std::array<std::uint16_t, kMaxCodeLength + 1> bl_count{};
  for (unsigned s = 0; s < num_symbols; ++s) bl_count[lengths[s]]++;
  bl_count[0] = 0;

  std::array<std::uint16_t, kMaxCodeLength + 2> next_code{};
  std::uint16_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = static_cast<std::uint16_t>((code + bl_count[len - 1]) << 1);
    next_code[len] = code;
  }

  CanonicalCode out;
  out.bits = lengths;
  for (unsigned s = 0; s < num_symbols; ++s) {
    if (lengths[s] != 0) out.code[s] = next_code[lengths[s]]++;
  }
  return out;
}

CanonicalCode make_fixed_litlen() {
  std::array<std::uint8_t, kNumLitLenSymbols> lengths{};
  for (unsigned s = 0; s <= 143; ++s) lengths[s] = 8;
  for (unsigned s = 144; s <= 255; ++s) lengths[s] = 9;
  for (unsigned s = 256; s <= 279; ++s) lengths[s] = 7;
  for (unsigned s = 280; s <= 287; ++s) lengths[s] = 8;
  return build_canonical(lengths, kNumLitLenSymbols);
}

CanonicalCode make_fixed_distance() {
  std::array<std::uint8_t, kNumLitLenSymbols> lengths{};
  for (unsigned s = 0; s < 32; ++s) lengths[s] = 5;  // 30/31 never emitted
  return build_canonical(lengths, 32);
}

}  // namespace

LengthCode length_code(std::uint32_t length) noexcept {
  assert(length >= 3 && length <= 258);
  const unsigned i = kLengthIndex[length];
  return LengthCode{static_cast<std::uint16_t>(kFirstLengthCode + i), kLengthExtra[i],
                    static_cast<std::uint16_t>(length - kLengthBase[i])};
}

DistanceCode distance_code(std::uint32_t distance) noexcept {
  assert(distance >= 1 && distance <= kMaxWindowDistance);
  const unsigned i =
      distance <= 256 ? kDistIndex[distance - 1] : kDistIndex[256 + ((distance - 1) >> 7)];
  return DistanceCode{static_cast<std::uint8_t>(i), kDistExtra[i],
                      static_cast<std::uint16_t>(distance - kDistBase[i])};
}

DistanceCode checked_distance_code(std::uint32_t distance) {
  if (distance > kMaxDistance)
    throw std::invalid_argument("deflate: match distance " + std::to_string(distance) +
                                " is beyond Deflate's 32768");
  return distance_code(distance);
}

std::uint32_t length_base(unsigned symbol) noexcept {
  assert(symbol >= kFirstLengthCode && symbol <= 285);
  return kLengthBase[symbol - kFirstLengthCode];
}

unsigned length_extra_bits(unsigned symbol) noexcept {
  assert(symbol >= kFirstLengthCode && symbol <= 285);
  return kLengthExtra[symbol - kFirstLengthCode];
}

std::uint32_t distance_base(unsigned symbol) noexcept {
  assert(symbol < 30);
  return kDistBase[symbol];
}

unsigned distance_extra_bits(unsigned symbol) noexcept {
  assert(symbol < 30);
  return kDistExtra[symbol];
}

const CanonicalCode& fixed_litlen_code() noexcept {
  static const CanonicalCode c = make_fixed_litlen();
  return c;
}

const CanonicalCode& fixed_distance_code() noexcept {
  static const CanonicalCode c = make_fixed_distance();
  return c;
}

}  // namespace lzss::deflate
