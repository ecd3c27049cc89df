#include "container/codec.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/checksum.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "parallel/stripe.hpp"

namespace lzss::container {

namespace {

std::vector<std::uint8_t> stored_record(std::span<const std::uint8_t> raw, std::uint32_t crc) {
  std::vector<std::uint8_t> record;
  record.reserve(kBlockHeaderSize + raw.size());
  append_block_header(record, Method::kStored, crc, static_cast<std::uint32_t>(raw.size()),
                      static_cast<std::uint32_t>(raw.size()));
  record.insert(record.end(), raw.begin(), raw.end());
  return record;
}

}  // namespace

BlockEncodeResult block_record(std::span<const std::uint8_t> raw,
                               std::span<const std::uint8_t> deflated) {
  BlockEncodeResult out;
  const std::uint32_t crc = checksum::crc32(raw);
  if (deflated.size() >= raw.size() && !raw.empty()) {
    // Incompressible: the stored form is never larger than raw + header.
    out.stored = true;
    out.record = stored_record(raw, crc);
    return out;
  }
  out.record.reserve(kBlockHeaderSize + deflated.size());
  append_block_header(out.record, Method::kDeflate, crc, static_cast<std::uint32_t>(raw.size()),
                      static_cast<std::uint32_t>(deflated.size()));
  out.record.insert(out.record.end(), deflated.begin(), deflated.end());
  return out;
}

BlockEncodeResult encode_block(const hw::HwConfig& cfg, hw::Compressor* reuse,
                               std::span<const std::uint8_t> raw) {
  hw::CycleStats census{};
  std::vector<std::uint8_t> deflated;
  try {
    std::optional<hw::Compressor> ad_hoc;
    if (reuse == nullptr) reuse = &ad_hoc.emplace(cfg);
    const hw::CompressResult result = reuse->compress(raw);
    census = result.stats;
    deflated = deflate::deflate_fixed(result.tokens);
  } catch (const std::exception&) {
    // Degradation, not error: a stored record always round-trips, so one
    // failing block never fails the whole container.
    BlockEncodeResult out;
    out.stored = true;
    out.record = stored_record(raw, checksum::crc32(raw));
    return out;
  }
  BlockEncodeResult out = block_record(raw, deflated);
  out.census_valid = true;
  out.census = census;
  return out;
}

void decode_block(const BlockView& block, std::span<std::uint8_t> out) {
  const auto fail = [&](ContainerError::Kind kind, const std::string& what) {
    throw ContainerError(kind, "block " + std::to_string(block.index) + ": " + what,
                         block.index);
  };
  if (out.size() != block.raw_len)
    fail(ContainerError::Kind::kBadLength, "output span mismatches raw_len");
  std::vector<std::uint8_t> corrupted;
  std::span<const std::uint8_t> comp = block.comp;
  if (fault::corrupt_into("container.block.corrupt", block.comp, corrupted)) comp = corrupted;

  if (block.method == Method::kStored) {
    if (comp.size() != block.raw_len)
      fail(ContainerError::Kind::kBadLength, "stored length mismatch");
    std::memcpy(out.data(), comp.data(), comp.size());
  } else {
    // raw_len (validated against block_size during parse) is the hard
    // output cap: the per-block inflate bomb guard. A stream that wants
    // more fails, like any other malformed stream, before the memory is
    // committed.
    std::vector<std::uint8_t> raw;
    try {
      raw = deflate::inflate_raw(comp, block.raw_len);
    } catch (const deflate::InflateError& e) {
      fail(ContainerError::Kind::kBadStream, e.what());
    } catch (const std::out_of_range&) {
      fail(ContainerError::Kind::kBadStream, "Deflate stream ends early");
    }
    if (raw.size() != block.raw_len)
      fail(ContainerError::Kind::kBadLength, "inflated to the wrong length");
    std::memcpy(out.data(), raw.data(), raw.size());
  }
  if (checksum::crc32(out) != block.crc32)
    fail(ContainerError::Kind::kCrcMismatch, "CRC-32 mismatch");
}

std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> input,
                                         const BlockCodecConfig& config,
                                         EncodeReport* report) {
  const std::size_t block_bytes =
      par::clamp_block_bytes(config.block_bytes, config.hw.dict_size());
  const std::size_t blocks = block_count_for(input.size(), block_bytes);
  std::vector<std::uint8_t> out;
  append_superframe_header(out, static_cast<std::uint32_t>(block_bytes),
                           static_cast<std::uint32_t>(blocks), input.size());
  std::size_t stored_blocks = 0;
  for (std::size_t begin = 0; begin < input.size(); begin += block_bytes) {
    const std::size_t len = std::min(block_bytes, input.size() - begin);
    const auto result = encode_block(config.hw, nullptr, input.subspan(begin, len));
    if (result.stored) ++stored_blocks;
    out.insert(out.end(), result.record.begin(), result.record.end());
  }
  if (report != nullptr) {
    report->blocks = blocks;
    report->stored_blocks = stored_blocks;
    report->effective_block_bytes = block_bytes;
  }
  return out;
}

std::vector<std::uint8_t> block_decompress(std::span<const std::uint8_t> bytes,
                                           std::size_t max_output, DecodeReport* report) {
  const SuperframeView view = parse(bytes, max_output);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(view.raw_total));
  std::size_t stored_blocks = 0;
  // All-or-nothing: the first failing block throws, so a damaged container
  // never yields a partial payload.
  for (const BlockView& b : view.blocks) {
    if (b.method == Method::kStored) ++stored_blocks;
    decode_block(b, std::span<std::uint8_t>(out).subspan(b.raw_offset, b.raw_len));
  }
  if (report != nullptr) {
    report->blocks = view.blocks.size();
    report->stored_blocks = stored_blocks;
  }
  return out;
}

}  // namespace lzss::container
