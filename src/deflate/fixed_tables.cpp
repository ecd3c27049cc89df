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
  // Linear scan is fine: called through a lookup in the encoder hot path only
  // via this function; the table is tiny and the upper_bound is predictable.
  unsigned i = 28;
  if (length < 258) {
    i = 0;
    while (i + 1 < 29 && kLengthBase[i + 1] <= length) ++i;
  }
  return LengthCode{static_cast<std::uint16_t>(kFirstLengthCode + i), kLengthExtra[i],
                    static_cast<std::uint16_t>(length - kLengthBase[i])};
}

DistanceCode distance_code(std::uint32_t distance) noexcept {
  assert(distance >= 1 && distance <= kMaxDistance);
  unsigned i = 0;
  while (i + 1 < 30 && kDistBase[i + 1] <= distance) ++i;
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
