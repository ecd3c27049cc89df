#include "deflate/dynamic_encoder.hpp"

#include <algorithm>
#include <array>

#include "deflate/fixed_tables.hpp"
#include "deflate/huffman.hpp"

namespace lzss::deflate {
namespace {

// Order in which code-length-code lengths are transmitted (RFC 1951).
constexpr std::array<std::uint8_t, 19> kClcOrder{16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                                 11, 4,  12, 3, 13, 2, 14, 1, 15};

struct ClcSymbol {
  std::uint8_t symbol;      // 0..18
  std::uint8_t extra_bits;  // for 16/17/18
  std::uint8_t extra_value;
};

/// Run-length encodes a code-length sequence into CLC symbols (16 = repeat
/// previous 3-6, 17 = zeros 3-10, 18 = zeros 11-138).
std::vector<ClcSymbol> rle_code_lengths(std::span<const std::uint8_t> lengths) {
  std::vector<ClcSymbol> out;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t len = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == len) ++run;

    if (len == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t n = std::min<std::size_t>(left, 138);
        out.push_back({18, 7, static_cast<std::uint8_t>(n - 11)});
        left -= n;
      }
      if (left >= 3) {
        out.push_back({17, 3, static_cast<std::uint8_t>(left - 3)});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({len, 0, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t n = std::min<std::size_t>(left, 6);
        out.push_back({16, 2, static_cast<std::uint8_t>(n - 3)});
        left -= n;
      }
      while (left-- > 0) out.push_back({len, 0, 0});
    }
    i += run;
  }
  return out;
}

}  // namespace

void write_dynamic_block(bits::BitWriter& w, std::span<const core::Token> tokens,
                         bool final_block) {
  // 1. Symbol frequencies.
  std::vector<std::uint64_t> lit_freq(kNumLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(kNumDistSymbols, 0);
  for (const core::Token& t : tokens) {
    if (t.is_literal()) {
      lit_freq[t.literal_byte()]++;
    } else {
      lit_freq[length_code(t.length()).symbol]++;
      dist_freq[checked_distance_code(t.distance()).symbol]++;
    }
  }
  lit_freq[kEndOfBlock] = 1;

  // 2. Code lengths (15-bit limit), then canonical codes.
  std::vector<std::uint8_t> lit_len = huffman_code_lengths(lit_freq, kMaxCodeLength);
  std::vector<std::uint8_t> dist_len = huffman_code_lengths(dist_freq, kMaxCodeLength);
  // A decodable block needs at least one distance code even if unused.
  if (std::all_of(dist_len.begin(), dist_len.end(), [](auto l) { return l == 0; }))
    dist_len[0] = 1;
  const auto lit_codes = canonical_codes(lit_len);
  const auto dist_codes = canonical_codes(dist_len);

  // 3. Trim trailing zero lengths; HLIT >= 257, HDIST >= 1.
  std::size_t hlit = kNumLitLenSymbols;
  while (hlit > 257 && lit_len[hlit - 1] == 0) --hlit;
  std::size_t hdist = kNumDistSymbols;
  while (hdist > 1 && dist_len[hdist - 1] == 0) --hdist;

  // 4. RLE the concatenated length sequence and build the CLC code.
  std::vector<std::uint8_t> all_lengths(lit_len.begin(),
                                        lit_len.begin() + static_cast<std::ptrdiff_t>(hlit));
  all_lengths.insert(all_lengths.end(), dist_len.begin(),
                     dist_len.begin() + static_cast<std::ptrdiff_t>(hdist));
  const auto clc_symbols = rle_code_lengths(all_lengths);

  std::vector<std::uint64_t> clc_freq(19, 0);
  for (const auto& s : clc_symbols) clc_freq[s.symbol]++;
  std::vector<std::uint8_t> clc_len = huffman_code_lengths(clc_freq, 7);
  const auto clc_codes = canonical_codes(clc_len);

  std::size_t hclen = 19;
  while (hclen > 4 && clc_len[kClcOrder[hclen - 1]] == 0) --hclen;

  // 5. Emit the header.
  w.put_bits(final_block ? 1 : 0, 1);
  w.put_bits(0b10, 2);  // BTYPE = dynamic
  w.put_bits(static_cast<std::uint32_t>(hlit - 257), 5);
  w.put_bits(static_cast<std::uint32_t>(hdist - 1), 5);
  w.put_bits(static_cast<std::uint32_t>(hclen - 4), 4);
  for (std::size_t i = 0; i < hclen; ++i) w.put_bits(clc_len[kClcOrder[i]], 3);
  for (const auto& s : clc_symbols) {
    w.put_huffman(clc_codes[s.symbol], clc_len[s.symbol]);
    if (s.extra_bits != 0) w.put_bits(s.extra_value, s.extra_bits);
  }

  // 6. Emit the payload.
  for (const core::Token& t : tokens) {
    if (t.is_literal()) {
      const unsigned s = t.literal_byte();
      w.put_huffman(lit_codes[s], lit_len[s]);
      continue;
    }
    const LengthCode lc = length_code(t.length());
    w.put_huffman(lit_codes[lc.symbol], lit_len[lc.symbol]);
    if (lc.extra_bits != 0) w.put_bits(lc.extra_value, lc.extra_bits);
    const DistanceCode dc = distance_code(t.distance());
    w.put_huffman(dist_codes[dc.symbol], dist_len[dc.symbol]);
    if (dc.extra_bits != 0) w.put_bits(dc.extra_value, dc.extra_bits);
  }
  w.put_huffman(lit_codes[kEndOfBlock], lit_len[kEndOfBlock]);
}

std::vector<std::uint8_t> deflate_dynamic(std::span<const core::Token> tokens) {
  bits::BitWriter w;
  write_dynamic_block(w, tokens, /*final_block=*/true);
  return w.take();
}

}  // namespace lzss::deflate
