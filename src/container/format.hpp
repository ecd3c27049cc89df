// The LZBC block container: the on-wire format for block-parallel payloads.
//
// One large payload is split into fixed-size blocks, each compressed
// independently, so a bank of engines (or a pool of service workers) can
// work on one request concurrently — the Xilinx LZ4 data-compression flow
// and GPULZ both rest on exactly this per-block independence. The container
// is a superframe header followed by the block records in input order:
//
//   superframe header (24 bytes, little-endian)
//   ------------------------------------------
//   0   magic    "LZBC"
//   4   version  (1)
//   5   reserved (0)
//   6   reserved u16 (0)
//   8   block_size  u32   split size; every block but the last is exactly
//                         this long
//   12  block_count u32
//   16  raw_total   u64   sum of the blocks' raw lengths
//
//   block record (16-byte header + comp_len payload bytes)
//   ------------------------------------------------------
//   0   comp_len u32      payload bytes that follow the record header
//   4   raw_len  u32      decompressed length of this block
//   8   method   u8       0 = deflate (one BFINAL Deflate stream),
//                         1 = stored (payload is the raw bytes verbatim)
//   9   reserved (0) x3
//   12  crc32    u32      CRC-32 of the block's RAW bytes
//
// Parsing is strict and fully validated before any block is decoded: bad
// magic/version/method, non-zero reserved bytes, inconsistent lengths,
// truncation and trailing garbage all raise a typed ContainerError — never
// UB, never an allocation driven by an unchecked length. The per-block
// CRC-32 covers the raw bytes, so corruption is pinned to a block and a
// damaged container can never produce a partial-success payload.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lzss::container {

inline constexpr std::uint8_t kMagic[4] = {'L', 'Z', 'B', 'C'};
inline constexpr std::uint8_t kFormatVersion = 1;
inline constexpr std::size_t kSuperframeHeaderSize = 24;
inline constexpr std::size_t kBlockHeaderSize = 16;
/// Upper bound on block_size: matches the frame protocol's payload cap, so
/// a hostile header can never request a larger split than a frame can carry.
inline constexpr std::uint32_t kMaxBlockSize = 64u * 1024 * 1024;

enum class Method : std::uint8_t {
  kDeflate = 0,  ///< one self-contained Deflate stream (BFINAL set)
  kStored = 1,   ///< raw bytes verbatim (incompressible / fallback blocks)
};

/// Typed parse/decode failure. kTooLarge is the caller-cap violation (maps
/// to the service's TOO_LARGE status); everything else maps to CORRUPT.
/// `block()` names the block record at fault, or is kNoBlock when the
/// superframe itself is.
class ContainerError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kTruncated,        ///< fewer bytes than the headers promise
    kBadMagic,
    kBadVersion,       ///< unknown version or non-zero reserved bytes
    kBadBlockSize,     ///< zero or beyond kMaxBlockSize
    kBadLength,        ///< block lengths inconsistent with the superframe
    kBadMethod,        ///< method byte outside {deflate, stored}
    kCrcMismatch,      ///< a block's raw bytes failed their CRC-32
    kTooLarge,         ///< raw_total exceeds the caller's output cap
    kTrailingGarbage,  ///< bytes after the last block record
    kBadStream,        ///< a block's Deflate stream failed to inflate
  };

  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  ContainerError(Kind kind, const std::string& what, std::size_t block = kNoBlock)
      : std::runtime_error("LZBC: " + what), kind_(kind), block_(block) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }

 private:
  Kind kind_;
  std::size_t block_;
};

/// One parsed block record; `comp` views into the parsed buffer.
struct BlockView {
  std::span<const std::uint8_t> comp;
  std::uint32_t raw_len = 0;
  std::uint32_t crc32 = 0;
  Method method = Method::kDeflate;
  std::size_t index = 0;       ///< position in the container, for typed errors
  std::size_t raw_offset = 0;  ///< where this block's bytes land in the output
};

struct SuperframeView {
  std::uint32_t block_size = 0;
  std::uint64_t raw_total = 0;
  std::vector<BlockView> blocks;
};

/// Blocks needed to carry @p raw_size bytes at @p block_size per block.
[[nodiscard]] constexpr std::size_t block_count_for(std::size_t raw_size,
                                                    std::size_t block_size) noexcept {
  return block_size == 0 ? 0 : (raw_size + block_size - 1) / block_size;
}

/// Cheap sniff (magic only) — lets DECOMPRESS route LZBC payloads to the
/// block-parallel path and everything else to the single-shot inflater.
[[nodiscard]] bool looks_like_container(std::span<const std::uint8_t> bytes) noexcept;

void append_superframe_header(std::vector<std::uint8_t>& out, std::uint32_t block_size,
                              std::uint32_t block_count, std::uint64_t raw_total);
void append_block_header(std::vector<std::uint8_t>& out, Method method, std::uint32_t crc32,
                         std::uint32_t raw_len, std::uint32_t comp_len);

/// Strict full-container validation. Every structural invariant is checked
/// here — length arithmetic, method bytes, the raw_total cross-check —
/// before any block payload is touched; @p max_raw_total bounds the total
/// decompressed size (the inflate-bomb analogue for the superframe, throws
/// kTooLarge). Block payload CRCs are verified later, during decode.
[[nodiscard]] SuperframeView parse(std::span<const std::uint8_t> bytes,
                                   std::size_t max_raw_total);

}  // namespace lzss::container
