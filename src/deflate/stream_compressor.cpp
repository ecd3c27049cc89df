#include "deflate/stream_compressor.hpp"

#include <algorithm>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "lzss/mf_encoder.hpp"

namespace lzss::deflate {
namespace {

/// Dynamic-block cost is only known by building it; do so into a scratch
/// writer and return the bit count.
std::uint64_t dynamic_bits_of(std::span<const core::Token> tokens) {
  bits::BitWriter scratch;
  write_dynamic_block(scratch, tokens, /*final_block=*/false);
  return scratch.bit_count();
}

}  // namespace

StreamCompressor::StreamCompressor(StreamOptions options) : opt_(options) {}

void StreamCompressor::write(std::span<const std::uint8_t> chunk) {
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
}

void StreamCompressor::flush() {
  if (!buffer_.empty() && (boundaries_.empty() || boundaries_.back() != buffer_.size())) {
    boundaries_.push_back(buffer_.size());
  }
}

std::vector<std::uint8_t> StreamCompressor::finish() {
  blocks_.clear();

  // One full-history matcher pass (zlib equivalent of its sliding window,
  // without the 32 KB cap since we hold the whole buffer anyway).
  core::MatchFinderEncoder enc(opt_.params);
  const std::vector<core::Token> tokens = enc.encode(buffer_);

  // Split the token stream at block_bytes of covered source, honoring the
  // explicit flush boundaries.
  bits::BitWriter w;
  std::size_t next_boundary_idx = 0;
  std::size_t block_start_byte = 0;   // source offset where this block begins
  std::size_t covered = 0;            // source offset after the last token taken
  std::size_t block_first_token = 0;

  auto emit_block = [&](std::size_t token_end, std::size_t byte_end, bool final_block) {
    const std::span<const core::Token> block_tokens(tokens.data() + block_first_token,
                                                    token_end - block_first_token);
    const std::span<const std::uint8_t> source(buffer_.data() + block_start_byte,
                                               byte_end - block_start_byte);
    BlockRecord rec;
    rec.source_bytes = source.size();
    rec.token_count = block_tokens.size();
    // Stored cost: header + alignment + 4-byte LEN/NLEN + payload, only
    // representable up to 65535 bytes.
    rec.stored_bits = source.size() <= 0xFFFF
                          ? 3 + ((8 - ((w.bit_count() + 3) % 8)) % 8) + 32 + 8 * source.size()
                          : ~std::uint64_t{0};
    rec.fixed_bits = fixed_block_bits(block_tokens);
    rec.dynamic_bits = dynamic_bits_of(block_tokens);

    char choice;
    switch (opt_.policy) {
      case BlockPolicy::kFixedOnly:
        choice = 'f';
        break;
      case BlockPolicy::kDynamicOnly:
        choice = 'd';
        break;
      case BlockPolicy::kAuto:
      default:
        choice = 'f';
        if (rec.dynamic_bits < rec.fixed_bits) choice = 'd';
        if (rec.stored_bits < std::min(rec.fixed_bits, rec.dynamic_bits)) choice = 's';
        break;
    }
    rec.chosen = choice;
    blocks_.push_back(rec);

    switch (choice) {
      case 's':
        write_stored_block(w, source, final_block);
        break;
      case 'f':
        write_fixed_block(w, block_tokens, final_block);
        break;
      case 'd':
        write_dynamic_block(w, block_tokens, final_block);
        break;
    }
    block_first_token = token_end;
    block_start_byte = byte_end;
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    covered += tokens[i].is_literal() ? 1 : tokens[i].length();
    const bool forced = next_boundary_idx < boundaries_.size() &&
                        covered >= boundaries_[next_boundary_idx];
    const bool full = covered - block_start_byte >= opt_.block_bytes;
    const bool last = i + 1 == tokens.size();
    if ((forced || full) && !last) {
      if (forced) ++next_boundary_idx;
      emit_block(i + 1, covered, /*final_block=*/false);
    }
  }
  emit_block(tokens.size(), buffer_.size(), /*final_block=*/true);

  const auto payload = w.take();
  std::vector<std::uint8_t> out;
  switch (opt_.container) {
    case ContainerKind::kRaw:
      out = payload;
      break;
    case ContainerKind::kZlib:
      out = zlib_wrap(payload, checksum::adler32(buffer_),
                      std::clamp(opt_.params.window_bits, 8u, 15u));
      break;
    case ContainerKind::kGzip:
      out = gzip_wrap(payload, checksum::crc32(buffer_),
                      static_cast<std::uint32_t>(buffer_.size()));
      break;
  }
  buffer_.clear();
  boundaries_.clear();
  return out;
}

}  // namespace lzss::deflate
