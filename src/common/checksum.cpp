#include "common/checksum.hpp"

#include <algorithm>
#include <array>

#include "common/byte_order.hpp"

namespace lzss::checksum {
namespace {

constexpr std::uint32_t kAdlerMod = 65521;  // largest prime < 2^16
// Max bytes processable before s2 can overflow a uint32 (zlib's NMAX).
constexpr std::size_t kAdlerNmax = 5552;

// Slicing-by-8: kCrcTables[0] is the bytewise table; kCrcTables[k][b] is the
// CRC of byte b followed by k zero bytes, so one step folds eight input
// bytes with eight independent lookups instead of a chain of eight.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

void Adler32::update(std::span<const std::uint8_t> data) noexcept {
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t chunk = std::min(data.size() - i, kAdlerNmax);
    for (std::size_t j = 0; j < chunk; ++j) {
      s1_ += data[i + j];
      s2_ += s1_;
    }
    s1_ %= kAdlerMod;
    s2_ %= kAdlerMod;
    i += chunk;
  }
}

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = crc_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_le32(p);
    const std::uint32_t hi = get_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  crc_ = c;
}

std::uint32_t adler32(std::span<const std::uint8_t> data) noexcept {
  Adler32 a;
  a.update(data);
  return a.value();
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace lzss::checksum
