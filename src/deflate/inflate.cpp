#include "deflate/inflate.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/bitio.hpp"
#include "common/byte_order.hpp"
#include "common/checksum.hpp"
#include "deflate/fixed_tables.hpp"
#include "deflate/huffman.hpp"
#include "fault/fault.hpp"

namespace lzss::deflate {
namespace {

constexpr std::array<std::uint8_t, 19> kClcOrder{16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                 11, 4,  12, 3, 13, 2, 14, 1, 15};

/// The compression-bomb guard: refuses to commit output past @p cap.
void check_output_cap(std::size_t next_size, std::size_t cap) {
  if (next_size > cap) throw InflateBombError("inflate: output exceeds expansion cap");
}

void inflate_block_payload(bits::BitReader& r, const HuffmanDecoder& lit,
                           const HuffmanDecoder& dist, std::vector<std::uint8_t>& out,
                           std::size_t cap) {
  auto next_bit = [&r] { return r.get_bit(); };
  for (;;) {
    const unsigned sym = lit.decode(next_bit);
    if (sym < 256) {
      check_output_cap(out.size() + 1, cap);
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    if (sym == kEndOfBlock) return;
    if (sym > 285) throw InflateError("inflate: invalid length symbol");
    const std::uint32_t length = length_base(sym) + r.get_bits(length_extra_bits(sym));
    if (dist.empty()) throw InflateError("inflate: match with no distance code");
    const unsigned dsym = dist.decode(next_bit);
    if (dsym > 29) throw InflateError("inflate: invalid distance symbol");
    const std::uint32_t distance = distance_base(dsym) + r.get_bits(distance_extra_bits(dsym));
    if (distance > out.size()) throw InflateError("inflate: distance too far back");
    check_output_cap(out.size() + length, cap);
    std::size_t src = out.size() - distance;
    for (std::uint32_t i = 0; i < length; ++i) out.push_back(out[src + i]);
  }
}

void inflate_stored(bits::BitReader& r, std::vector<std::uint8_t>& out, std::size_t cap) {
  r.align_to_byte();
  const std::uint32_t len = r.get_bits(16);
  const std::uint32_t nlen = r.get_bits(16);
  if ((len ^ nlen) != 0xFFFF) throw InflateError("inflate: stored block LEN/NLEN mismatch");
  check_output_cap(out.size() + len, cap);
  for (std::uint32_t i = 0; i < len; ++i)
    out.push_back(static_cast<std::uint8_t>(r.get_bits(8)));
}

void inflate_fixed(bits::BitReader& r, std::vector<std::uint8_t>& out, std::size_t cap) {
  static const HuffmanDecoder lit = [] {
    std::array<std::uint8_t, 288> lengths{};
    for (unsigned s = 0; s <= 143; ++s) lengths[s] = 8;
    for (unsigned s = 144; s <= 255; ++s) lengths[s] = 9;
    for (unsigned s = 256; s <= 279; ++s) lengths[s] = 7;
    for (unsigned s = 280; s <= 287; ++s) lengths[s] = 8;
    return HuffmanDecoder(lengths);
  }();
  static const HuffmanDecoder dist = [] {
    std::array<std::uint8_t, 32> lengths{};
    lengths.fill(5);
    return HuffmanDecoder(lengths);
  }();
  inflate_block_payload(r, lit, dist, out, cap);
}

void inflate_dynamic(bits::BitReader& r, std::vector<std::uint8_t>& out, std::size_t cap) {
  const std::uint32_t hlit = r.get_bits(5) + 257;
  const std::uint32_t hdist = r.get_bits(5) + 1;
  const std::uint32_t hclen = r.get_bits(4) + 4;
  if (hlit > 286 || hdist > 30) throw InflateError("inflate: bad HLIT/HDIST");

  std::array<std::uint8_t, 19> clc_lengths{};
  for (std::uint32_t i = 0; i < hclen; ++i)
    clc_lengths[kClcOrder[i]] = static_cast<std::uint8_t>(r.get_bits(3));
  const HuffmanDecoder clc(clc_lengths);

  auto next_bit = [&r] { return r.get_bit(); };
  std::vector<std::uint8_t> lengths;
  lengths.reserve(hlit + hdist);
  while (lengths.size() < hlit + hdist) {
    const unsigned sym = clc.decode(next_bit);
    if (sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      if (lengths.empty()) throw InflateError("inflate: repeat with no previous length");
      const std::uint32_t n = 3 + r.get_bits(2);
      lengths.insert(lengths.end(), n, lengths.back());
    } else if (sym == 17) {
      lengths.insert(lengths.end(), 3 + r.get_bits(3), 0);
    } else {  // 18
      lengths.insert(lengths.end(), 11 + r.get_bits(7), 0);
    }
  }
  if (lengths.size() != hlit + hdist) throw InflateError("inflate: code length overflow");

  const std::span<const std::uint8_t> all(lengths);
  const HuffmanDecoder lit(all.subspan(0, hlit));
  const HuffmanDecoder dist(all.subspan(hlit, hdist));
  inflate_block_payload(r, lit, dist, out, cap);
}

}  // namespace

std::vector<std::uint8_t> inflate_raw(std::span<const std::uint8_t> stream,
                                      std::size_t max_output) {
  bits::BitReader r(stream);
  std::vector<std::uint8_t> out;
  // Even without a caller cap, output is bounded by the structural expansion
  // limit — a corrupt or hostile stream cannot force unbounded allocation.
  const std::size_t cap = std::min(max_output, max_inflate_expansion(stream.size()));
  try {
    for (;;) {
      const std::uint32_t bfinal = r.get_bit();
      const std::uint32_t btype = r.get_bits(2);
      switch (btype) {
        case 0:
          inflate_stored(r, out, cap);
          break;
        case 1:
          inflate_fixed(r, out, cap);
          break;
        case 2:
          inflate_dynamic(r, out, cap);
          break;
        default:
          throw InflateError("inflate: reserved block type");
      }
      if (bfinal != 0) return out;
    }
  } catch (const std::invalid_argument& e) {
    // Malformed Huffman codes surface as invalid_argument from the decoder
    // constructor; to the caller that is simply corrupt input.
    throw InflateError(std::string("inflate: ") + e.what());
  }
}

std::vector<std::uint8_t> zlib_decompress(std::span<const std::uint8_t> stream,
                                          std::size_t max_output) {
  // Bit-corruption fault point: when armed, this call sees a damaged copy of
  // the container, exactly like flipped bits on a storage or transport path.
  std::vector<std::uint8_t> damaged;
  if (fault::corrupt_into("deflate.inflate.corrupt", stream, damaged)) stream = damaged;

  if (stream.size() < 6) throw InflateError("zlib: stream too short");
  const std::uint8_t cmf = stream[0];
  const std::uint8_t flg = stream[1];
  if ((cmf & 0x0F) != 8) throw InflateError("zlib: compression method is not deflate");
  if ((static_cast<unsigned>(cmf) * 256 + flg) % 31 != 0)
    throw InflateError("zlib: FCHECK failed");
  if ((flg & 0x20) != 0) throw InflateError("zlib: preset dictionaries unsupported");

  auto out = inflate_raw(stream.subspan(2, stream.size() - 6), max_output);
  const std::size_t t = stream.size() - 4;
  const std::uint32_t expected = (std::uint32_t{stream[t]} << 24) |
                                 (std::uint32_t{stream[t + 1]} << 16) |
                                 (std::uint32_t{stream[t + 2]} << 8) | stream[t + 3];
  if (checksum::adler32(out) != expected) throw InflateError("zlib: Adler-32 mismatch");
  return out;
}

std::vector<std::uint8_t> gzip_decompress(std::span<const std::uint8_t> stream,
                                          std::size_t max_output) {
  if (stream.size() < 18) throw InflateError("gzip: stream too short");
  if (stream[0] != 0x1F || stream[1] != 0x8B) throw InflateError("gzip: bad magic");
  if (stream[2] != 8) throw InflateError("gzip: compression method is not deflate");
  const std::uint8_t flags = stream[3];
  std::size_t pos = 10;
  if ((flags & 0x04) != 0) {  // FEXTRA
    if (pos + 2 > stream.size()) throw InflateError("gzip: truncated FEXTRA");
    const std::size_t xlen = stream[pos] | (std::size_t{stream[pos + 1]} << 8);
    pos += 2 + xlen;
  }
  for (const std::uint8_t bit : {std::uint8_t{0x08}, std::uint8_t{0x10}}) {  // FNAME, FCOMMENT
    if ((flags & bit) != 0) {
      while (pos < stream.size() && stream[pos] != 0) ++pos;
      ++pos;
    }
  }
  if ((flags & 0x02) != 0) pos += 2;  // FHCRC
  if (pos + 8 >= stream.size()) throw InflateError("gzip: truncated header");

  auto out = inflate_raw(stream.subspan(pos, stream.size() - pos - 8), max_output);
  const std::size_t t = stream.size() - 8;
  if (checksum::crc32(out) != get_le32(stream.data() + t))
    throw InflateError("gzip: CRC-32 mismatch");
  if (static_cast<std::uint32_t>(out.size()) != get_le32(stream.data() + t + 4))
    throw InflateError("gzip: ISIZE mismatch");
  return out;
}

}  // namespace lzss::deflate
