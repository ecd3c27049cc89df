#include "logger/archive.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/checksum.hpp"
#include "deflate/container.hpp"
#include "deflate/inflate.hpp"
#include "hw/compressor.hpp"

namespace lzss::logger {
namespace {

constexpr char kMagic[4] = {'L', 'Z', 'S', 'A'};

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) out.push_back(static_cast<std::uint8_t>((v >> s) & 0xFF));
}

std::uint64_t get_le64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int s = 0; s < 8; ++s) v |= static_cast<std::uint64_t>(in[at + s]) << (8 * s);
  return v;
}

}  // namespace

ArchiveWriter::ArchiveWriter(ArchiveOptions options) : opt_(options) {
  if (opt_.block_bytes == 0) throw std::invalid_argument("ArchiveWriter: zero block size");
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
  std::vector<std::uint8_t> z;
  if (opt_.use_hw_model) {
    hw::HwConfig cfg = hw::HwConfig::speed_optimized();
    cfg.max_chain = opt_.params.max_chain;
    cfg.nice_length = opt_.params.nice_length;
    hw::Compressor comp(cfg);
    const auto res = comp.compress(pending_);
    z = deflate::zlib_wrap_tokens(res.tokens, pending_, cfg.dict_bits);
  } else {
    z = deflate::zlib_compress(pending_, opt_.params, deflate::BlockKind::kDynamic);
  }
  index_.push_back({out_.size(), z.size(), pending_.size()});
  out_.insert(out_.end(), z.begin(), z.end());
  pending_.clear();
}

std::vector<std::uint8_t> ArchiveWriter::finish() {
  seal_block();
  // Trailer: index entries, counts, magic (parsed backwards).
  for (const auto& e : index_) {
    put_le64(out_, e.compressed_offset);
    put_le64(out_, e.compressed_size);
    put_le64(out_, e.uncompressed_size);
  }
  put_le64(out_, index_.size());
  put_le64(out_, total_in_);
  out_.insert(out_.end(), std::begin(kMagic), std::end(kMagic));

  std::vector<std::uint8_t> result = std::move(out_);
  out_.clear();
  index_.clear();
  total_in_ = 0;
  return result;
}

ArchiveReader::ArchiveReader(std::span<const std::uint8_t> archive) : archive_(archive) {
  if (archive.size() < 20)
    throw ArchiveError(ArchiveError::Kind::kTruncated, "archive: too short");
  if (std::memcmp(archive.data() + archive.size() - 4, kMagic, 4) != 0)
    throw ArchiveError(ArchiveError::Kind::kBadMagic, "archive: bad magic");
  total_ = get_le64(archive, archive.size() - 12);
  // Every field below comes from untrusted bytes: bound by division and
  // subtraction, never by a sum or product that could wrap.
  const std::size_t counts_at = archive.size() - 20;
  const std::uint64_t entries = get_le64(archive, counts_at);
  if (entries > counts_at / 24)
    throw ArchiveError(ArchiveError::Kind::kTruncated, "archive: truncated index");

  // Blocks live in the bytes before the index, and their raw sizes add up
  // to total_ without passing it.
  const std::size_t index_at = counts_at - static_cast<std::size_t>(entries) * 24;
  std::uint64_t uoff = 0;
  std::size_t at = index_at;
  for (std::uint64_t i = 0; i < entries; ++i, at += 24) {
    IndexEntry e;
    e.compressed_offset = get_le64(archive, at);
    e.compressed_size = get_le64(archive, at + 8);
    e.uncompressed_offset = uoff;
    e.uncompressed_size = get_le64(archive, at + 16);
    if (e.compressed_offset > index_at || e.compressed_size > index_at - e.compressed_offset ||
        e.uncompressed_size > total_ - uoff)
      throw ArchiveError(ArchiveError::Kind::kBadIndex, "archive: index entry out of range",
                         static_cast<std::size_t>(i));
    uoff += e.uncompressed_size;
    index_.push_back(e);
  }
  if (uoff != total_)
    throw ArchiveError(ArchiveError::Kind::kBadIndex,
                       "archive: index does not cover the payload");
}

std::vector<std::uint8_t> ArchiveReader::inflate_block(std::size_t block_index) const {
  const IndexEntry& e = index_[block_index];
  std::vector<std::uint8_t> block;
  try {
    // zlib_decompress verifies the container's Adler-32; the cap keeps a
    // corrupted length field from committing runaway memory.
    block = deflate::zlib_decompress(
        archive_.subspan(e.compressed_offset, e.compressed_size), e.uncompressed_size);
  } catch (const deflate::InflateError& err) {
    throw ArchiveError(ArchiveError::Kind::kBlockCorrupt,
                       "archive: block " + std::to_string(block_index) +
                           " failed to inflate: " + err.what(),
                       block_index);
  }
  if (block.size() != e.uncompressed_size)
    throw ArchiveError(ArchiveError::Kind::kBlockCorrupt,
                       "archive: block " + std::to_string(block_index) +
                           " inflated to the wrong size",
                       block_index);
  return block;
}

std::size_t ArchiveReader::verify() const {
  for (std::size_t i = 0; i < index_.size(); ++i) (void)inflate_block(i);
  return index_.size();
}

std::vector<std::uint8_t> ArchiveReader::read(std::uint64_t offset, std::size_t length) const {
  if (offset > total_ || length > total_ - offset)
    throw std::out_of_range("archive: read beyond end");
  std::vector<std::uint8_t> out;
  out.reserve(length);
  touched_ = 0;

  // Binary search for the first overlapping block.
  auto it = std::upper_bound(index_.begin(), index_.end(), offset,
                             [](std::uint64_t off, const IndexEntry& e) {
                               return off < e.uncompressed_offset + e.uncompressed_size;
                             });
  for (; it != index_.end() && out.size() < length; ++it) {
    const IndexEntry& e = *it;
    const auto block = inflate_block(static_cast<std::size_t>(it - index_.begin()));
    ++touched_;
    const std::uint64_t skip = offset + out.size() - e.uncompressed_offset;
    const std::size_t take =
        std::min<std::size_t>(length - out.size(), block.size() - skip);
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(skip),
               block.begin() + static_cast<std::ptrdiff_t>(skip + take));
  }
  if (out.size() != length)
    throw ArchiveError(ArchiveError::Kind::kBadIndex, "archive: short read");
  return out;
}

}  // namespace lzss::logger
