// Seekable compressed log archive.
//
// The paper motivates the compressor with embedded logging; its related
// work ([6], Kreft & Navarro) highlights the other half of the problem:
// random access into compressed data. A plain zlib stream must be inflated
// from byte 0 to read its tail — useless for a 1 TB log. The archive
// compresses the stream in independent fixed-size blocks (the dictionary
// resets per block), giving O(1) seeks at a small, measurable ratio cost.
//
// An archive is a plain LZBC container (container/format.hpp), the same
// bytes `lzssd` DECOMPRESS and VERIFY accept and COMPRESS_BLOCKED returns.
// LZBC's fixed split is the seek index: the block holding raw offset `o` is
// `o / block_size`, and each record carries its lengths and a CRC-32 of its
// raw bytes. The software path writes dynamic-Huffman blocks; the cycle-model
// path writes the model's fixed-Huffman blocks. A block Deflate does not
// shrink is stored.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "container/format.hpp"
#include "lzss/params.hpp"

namespace lzss::logger {

struct ArchiveOptions {
  core::MatchParams params = core::MatchParams::speed_optimized();
  std::size_t block_bytes = 256 * 1024;  ///< seek granularity, 1..kMaxBlockSize
  bool use_hw_model = false;  ///< compress blocks through the cycle model
};

/// Builds an archive incrementally.
class ArchiveWriter {
 public:
  /// Throws std::invalid_argument unless 0 < block_bytes <= kMaxBlockSize.
  explicit ArchiveWriter(ArchiveOptions options = {});

  /// Appends log bytes; complete blocks are compressed immediately.
  void append(std::span<const std::uint8_t> bytes);

  /// Flushes the partial block and returns the finished archive.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  [[nodiscard]] std::size_t bytes_appended() const noexcept { return total_in_; }

 private:
  void seal_block();

  ArchiveOptions opt_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> out_;  ///< header placeholder, then block records
  std::uint32_t blocks_ = 0;
  std::size_t total_in_ = 0;
};

/// Random access over a finished archive, or over any LZBC container. Views
/// into @p archive, which must outlive the reader.
class ArchiveReader {
 public:
  /// Parses the container; throws container::ContainerError when malformed.
  explicit ArchiveReader(std::span<const std::uint8_t> archive);

  [[nodiscard]] std::uint64_t uncompressed_size() const noexcept { return view_.raw_total; }
  [[nodiscard]] std::size_t block_count() const noexcept { return view_.blocks.size(); }

  /// Reads @p length bytes starting at uncompressed @p offset, decoding only
  /// the blocks that overlap the range. A damaged block throws
  /// container::ContainerError naming it — never silently returns garbage.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t offset, std::size_t length) const;

  /// Full-scan integrity check: decodes every block. Returns the number of
  /// blocks verified; throws container::ContainerError, naming the block, on
  /// the first damaged one.
  std::size_t verify() const;

  /// Number of blocks the last read() had to decode (exposed so tests can
  /// prove reads are local, i.e. the format actually delivers seekability).
  [[nodiscard]] std::size_t last_blocks_touched() const noexcept { return touched_; }

 private:
  container::SuperframeView view_;
  mutable std::size_t touched_ = 0;
};

}  // namespace lzss::logger
