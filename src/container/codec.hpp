// BlockCodec: split → compress-per-block → reassemble, and the symmetric
// parallel decode.
//
// The per-block primitives (encode_block / decode_block) are what the
// service's fan-out path runs on its worker pool (container/scheduler.hpp);
// block_compress / block_decompress run them in order on the calling thread
// for standalone use (tools, benches, tests), so the container round-trips
// without a server.
//
// Per-block guarantees:
//  * encode_block never fails: when the model path throws, or Deflate would
//    expand the block, it degrades to a stored record — the container-level
//    analogue of the service's stored-container fallback.
//  * decode_block validates the CRC-32 of the raw bytes and inflates with
//    the block's raw_len as a hard output cap, so the existing inflate bomb
//    guard holds per block: a hostile record can never allocate past the
//    length its own header (already validated against block_size) claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "container/format.hpp"
#include "hw/compressor.hpp"
#include "hw/config.hpp"
#include "hw/cycle_stats.hpp"

namespace lzss::container {

struct BlockCodecConfig {
  std::size_t block_bytes = 256 * 1024;  ///< split size before the dict clamp
  hw::HwConfig hw = hw::HwConfig::speed_optimized();
};

struct EncodeReport {
  std::size_t blocks = 0;
  std::size_t stored_blocks = 0;        ///< fallback / incompressible blocks
  std::size_t effective_block_bytes = 0;  ///< after the dictionary clamp
};

/// encode_block's output: the complete block record (header + payload).
struct BlockEncodeResult {
  std::vector<std::uint8_t> record;
  bool stored = false;
  bool census_valid = false;  ///< census only meaningful when the model ran
  hw::CycleStats census{};
};

/// Compresses one raw block into a full LZBC block record. @p reuse is a
/// caller-owned model instance to recycle (a service worker's engine); pass
/// null to construct one ad hoc for @p cfg.
[[nodiscard]] BlockEncodeResult encode_block(const hw::HwConfig& cfg, hw::Compressor* reuse,
                                             std::span<const std::uint8_t> raw);

/// Decodes one parsed block into @p out, which must be exactly raw_len
/// bytes (the caller carves it out of the preallocated output at
/// block.raw_offset — disjoint slices, so blocks decode concurrently).
/// Throws ContainerError (kCrcMismatch / kBadLength) or deflate::InflateError.
/// Fault point "container.block.corrupt" flips bits in the compressed view.
void decode_block(const BlockView& block, std::span<std::uint8_t> out);

/// Splits and compresses each block in order on the calling thread. The
/// block size is clamped up to the dictionary size (the stripe clamp; the
/// report carries the effective value).
[[nodiscard]] std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> input,
                                                       const BlockCodecConfig& config,
                                                       EncodeReport* report = nullptr);

struct DecodeReport {
  std::size_t blocks = 0;
  std::size_t stored_blocks = 0;
};

/// Parses strictly, then decodes every block (CRC-verified) in order.
/// @p max_output caps raw_total (throws kTooLarge beyond it).
[[nodiscard]] std::vector<std::uint8_t> block_decompress(std::span<const std::uint8_t> bytes,
                                                         std::size_t max_output,
                                                         DecodeReport* report = nullptr);

}  // namespace lzss::container
