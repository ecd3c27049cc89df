#include "deflate/encoder.hpp"

#include <stdexcept>

#include "deflate/fixed_tables.hpp"

namespace lzss::deflate {
namespace {

void write_token(bits::BitWriter& w, const CanonicalCode& lit, const CanonicalCode& dist,
                 const core::Token& t) {
  if (t.is_literal()) {
    const unsigned s = t.literal_byte();
    w.put_huffman(lit.code[s], lit.bits[s]);
    return;
  }
  const LengthCode lc = length_code(t.length());
  w.put_huffman(lit.code[lc.symbol], lit.bits[lc.symbol]);
  if (lc.extra_bits != 0) w.put_bits(lc.extra_value, lc.extra_bits);
  const DistanceCode dc = checked_distance_code(t.distance());
  w.put_huffman(dist.code[dc.symbol], dist.bits[dc.symbol]);
  if (dc.extra_bits != 0) w.put_bits(dc.extra_value, dc.extra_bits);
}

}  // namespace

void write_fixed_block(bits::BitWriter& w, std::span<const core::Token> tokens,
                       bool final_block) {
  const CanonicalCode& lit = fixed_litlen_code();
  const CanonicalCode& dist = fixed_distance_code();
  w.put_bits(final_block ? 1 : 0, 1);  // BFINAL
  w.put_bits(0b01, 2);                 // BTYPE = fixed Huffman
  for (const core::Token& t : tokens) write_token(w, lit, dist, t);
  w.put_huffman(lit.code[kEndOfBlock], lit.bits[kEndOfBlock]);
}

void write_stored_block(bits::BitWriter& w, std::span<const std::uint8_t> bytes,
                        bool final_block) {
  if (bytes.size() > 0xFFFF) throw std::invalid_argument("stored block exceeds 65535 bytes");
  w.put_bits(final_block ? 1 : 0, 1);
  w.put_bits(0b00, 2);
  w.align_to_byte();
  const auto len = static_cast<std::uint16_t>(bytes.size());
  w.put_aligned_byte(static_cast<std::uint8_t>(len & 0xFF));
  w.put_aligned_byte(static_cast<std::uint8_t>(len >> 8));
  w.put_aligned_byte(static_cast<std::uint8_t>(~len & 0xFF));
  w.put_aligned_byte(static_cast<std::uint8_t>((~len >> 8) & 0xFF));
  w.put_aligned_bytes(bytes);
}

unsigned fixed_token_bits(const core::Token& t) {
  const CanonicalCode& lit = fixed_litlen_code();
  const CanonicalCode& dist = fixed_distance_code();
  if (t.is_literal()) return lit.bits[t.literal_byte()];
  const LengthCode lc = length_code(t.length());
  const DistanceCode dc = distance_code(t.distance());
  return lit.bits[lc.symbol] + lc.extra_bits + dist.bits[dc.symbol] + dc.extra_bits;
}

std::uint64_t fixed_block_bits(std::span<const core::Token> tokens) {
  const CanonicalCode& lit = fixed_litlen_code();
  std::uint64_t bits = 3 + lit.bits[kEndOfBlock];  // header + EOB
  for (const core::Token& t : tokens) bits += fixed_token_bits(t);
  return bits;
}

std::vector<std::uint8_t> deflate_fixed(std::span<const core::Token> tokens) {
  bits::BitWriter w;
  write_fixed_block(w, tokens, /*final_block=*/true);
  return w.take();
}

}  // namespace lzss::deflate
