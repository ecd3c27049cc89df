#include "logger/archive.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "container/codec.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "lzss/mf_encoder.hpp"

namespace lzss::logger {

ArchiveWriter::ArchiveWriter(ArchiveOptions options)
    : opt_(options), out_(container::kSuperframeHeaderSize) {
  if (opt_.block_bytes == 0 || opt_.block_bytes > container::kMaxBlockSize)
    throw std::invalid_argument("ArchiveWriter: block_bytes must be 1.." +
                                std::to_string(container::kMaxBlockSize));
}

void ArchiveWriter::append(std::span<const std::uint8_t> bytes) {
  std::size_t i = 0;
  total_in_ += bytes.size();
  while (i < bytes.size()) {
    const std::size_t room = opt_.block_bytes - pending_.size();
    const std::size_t n = std::min(room, bytes.size() - i);
    pending_.insert(pending_.end(), bytes.begin() + static_cast<std::ptrdiff_t>(i),
                    bytes.begin() + static_cast<std::ptrdiff_t>(i + n));
    i += n;
    if (pending_.size() == opt_.block_bytes) seal_block();
  }
}

void ArchiveWriter::seal_block() {
  if (pending_.empty()) return;
  if (blocks_ == std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("ArchiveWriter: more blocks than LZBC can count");
  container::BlockEncodeResult block;
  if (opt_.use_hw_model) {
    hw::HwConfig cfg = hw::HwConfig::speed_optimized();
    cfg.max_chain = opt_.params.max_chain;
    cfg.nice_length = opt_.params.nice_length;
    block = container::encode_block(cfg, nullptr, pending_);
  } else {
    const auto tokens = core::MatchFinderEncoder(opt_.params).encode(pending_);
    block = container::block_record(pending_, deflate::deflate_dynamic(tokens));
  }
  out_.insert(out_.end(), block.record.begin(), block.record.end());
  ++blocks_;
  pending_.clear();
}

std::vector<std::uint8_t> ArchiveWriter::finish() {
  seal_block();
  std::vector<std::uint8_t> header;
  container::append_superframe_header(header, static_cast<std::uint32_t>(opt_.block_bytes),
                                      blocks_, total_in_);
  std::copy(header.begin(), header.end(), out_.begin());

  std::vector<std::uint8_t> result = std::move(out_);
  out_.assign(container::kSuperframeHeaderSize, 0);
  blocks_ = 0;
  total_in_ = 0;
  return result;
}

ArchiveReader::ArchiveReader(std::span<const std::uint8_t> archive)
    : view_(container::parse(archive, std::numeric_limits<std::size_t>::max())) {}

std::vector<std::uint8_t> ArchiveReader::read(std::uint64_t offset, std::size_t length) const {
  if (offset > view_.raw_total || length > view_.raw_total - offset)
    throw std::out_of_range("archive: read beyond end");
  touched_ = 0;
  std::vector<std::uint8_t> out;
  if (length == 0) return out;
  out.reserve(length);
  std::vector<std::uint8_t> block;
  // The fixed split is the index: every block but the last is block_size long.
  for (auto i = static_cast<std::size_t>(offset / view_.block_size); out.size() < length; ++i) {
    const container::BlockView& b = view_.blocks[i];
    block.resize(b.raw_len);
    container::decode_block(b, block);
    ++touched_;
    const std::size_t skip = static_cast<std::size_t>(offset + out.size() - b.raw_offset);
    const std::size_t take = std::min(length - out.size(), block.size() - skip);
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(skip),
               block.begin() + static_cast<std::ptrdiff_t>(skip + take));
  }
  return out;
}

std::size_t ArchiveReader::verify() const {
  std::vector<std::uint8_t> block;
  for (const container::BlockView& b : view_.blocks) {
    block.resize(b.raw_len);
    container::decode_block(b, block);
  }
  return view_.blocks.size();
}

}  // namespace lzss::logger
