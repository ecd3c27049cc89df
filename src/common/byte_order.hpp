// Little-endian field codec shared by every binary format in the repo: the
// frame protocol, the LZBC container, the LZS1 raw container and the log
// store's segment, record and index headers. Header-only, so each call
// inlines to the same shifts at every site.
//
// get_le* read straight from a pointer: callers bound-check the span first.
#pragma once

#include <cstdint>
#include <vector>

namespace lzss {

inline void put_le16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] inline std::uint16_t get_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

[[nodiscard]] inline std::uint32_t get_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] inline std::uint64_t get_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace lzss
