// RFC 1951 code tables: length/distance symbol mapping and the fixed
// Huffman code ("fixed-table Huffman encoding" in the paper).
//
// The hardware attaches a fixed-table pipelined Huffman encoder to the LZSS
// output; because the table is fixed no clock cycles are spent building it.
// Everything here is constexpr-initialized for the same reason.
#pragma once

#include <array>
#include <cstdint>

namespace lzss::deflate {

inline constexpr unsigned kNumLitLenSymbols = 288;  // 0..287 (286/287 reserved)
inline constexpr unsigned kNumDistSymbols = 30;     // 0..29
inline constexpr unsigned kEndOfBlock = 256;
inline constexpr unsigned kFirstLengthCode = 257;
inline constexpr unsigned kMaxCodeLength = 15;
inline constexpr std::uint32_t kMaxDistance = 32768;  // the reach of distance code 29

/// Length code: symbol 257..285, plus extra bits appended after the code.
struct LengthCode {
  std::uint16_t symbol;
  std::uint8_t extra_bits;
  std::uint16_t extra_value;
};

/// Distance code: symbol 0..29, plus extra bits.
struct DistanceCode {
  std::uint8_t symbol;
  std::uint8_t extra_bits;
  std::uint16_t extra_value;
};

/// Maps a match length (3..258) to its RFC 1951 code.
[[nodiscard]] LengthCode length_code(std::uint32_t length) noexcept;

/// Maps a distance (1..32768) to its RFC 1951 code. Distances 32769..65535
/// (a 64 KiB dictionary's reach) map to symbol 29 with an extra value too
/// wide for its 13 bits: fit for sizing a token, not for writing it.
[[nodiscard]] DistanceCode distance_code(std::uint32_t distance) noexcept;

/// distance_code() for the block writers: throws std::invalid_argument on a
/// distance past kMaxDistance, which distance_code() would code as an
/// unwritable symbol 29.
[[nodiscard]] DistanceCode checked_distance_code(std::uint32_t distance);

/// Base length for length symbol 257+i and its extra-bit count.
[[nodiscard]] std::uint32_t length_base(unsigned symbol) noexcept;
[[nodiscard]] unsigned length_extra_bits(unsigned symbol) noexcept;

/// Base distance for distance symbol i and its extra-bit count.
[[nodiscard]] std::uint32_t distance_base(unsigned symbol) noexcept;
[[nodiscard]] unsigned distance_extra_bits(unsigned symbol) noexcept;

/// A canonical Huffman code assignment: per-symbol code value and bit length.
struct CanonicalCode {
  std::array<std::uint16_t, kNumLitLenSymbols> code{};
  std::array<std::uint8_t, kNumLitLenSymbols> bits{};
};

/// The fixed literal/length code of RFC 1951 section 3.2.6.
[[nodiscard]] const CanonicalCode& fixed_litlen_code() noexcept;
/// The fixed distance code (5 bits for every symbol).
[[nodiscard]] const CanonicalCode& fixed_distance_code() noexcept;

}  // namespace lzss::deflate
