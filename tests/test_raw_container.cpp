#include "lzss/raw_container.hpp"

#include <gtest/gtest.h>

#include "hw/compressor.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::core {
namespace {

TEST(RawContainer, HeaderRoundtrip) {
  const std::vector<Token> tokens{Token::literal('x')};
  const auto c = raw_container_pack(tokens, 12, 1);
  const auto h = raw_container_header(c);
  EXPECT_EQ(h.window_bits, 12u);
  EXPECT_EQ(h.original_size, 1u);
  EXPECT_EQ(h.token_count, 1u);
}

TEST(RawContainer, FullRoundtrip) {
  MatchParams p;
  p.window_bits = 12;
  MatchFinderEncoder enc(p.with_level(1));
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto tokens = enc.encode(data);
  const auto c = raw_container_pack(tokens, p.window_bits, data.size());
  EXPECT_EQ(raw_container_unpack(c), data);
}

TEST(RawContainer, HardwareTokensRoundtrip) {
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto data = wl::make_corpus("x2e", 64 * 1024);
  const auto tokens = comp.compress(data).tokens;
  const auto c = raw_container_pack(tokens, comp.config().dict_bits, data.size());
  EXPECT_EQ(raw_container_unpack(c), data);
}

TEST(RawContainer, SizeIsHeaderPlusPackedTokens) {
  const std::vector<Token> tokens(10, Token::literal('a'));
  const auto c = raw_container_pack(tokens, 12, 10);
  // header 21 + ceil(10 * 20 bits / 8) = 21 + 25.
  EXPECT_EQ(c.size(), 21u + 25u);
}

TEST(RawContainer, BadMagicRejected) {
  const std::vector<Token> tokens{Token::literal('x')};
  auto c = raw_container_pack(tokens, 12, 1);
  c[0] = 'X';
  EXPECT_THROW((void)raw_container_unpack(c), DecodeError);
}

TEST(RawContainer, TruncationsRejected) {
  MatchParams p;
  MatchFinderEncoder enc(p.with_level(1));
  const auto data = wl::make_corpus("wiki", 4096);
  const auto tokens = enc.encode(data);
  auto c = raw_container_pack(tokens, p.window_bits, data.size());
  const std::span<const std::uint8_t> full(c);
  EXPECT_THROW((void)raw_container_unpack(full.subspan(0, 10)), DecodeError);      // header cut
  EXPECT_THROW((void)raw_container_unpack(full.subspan(0, c.size() / 2)), DecodeError);
}

TEST(RawContainer, SizeMismatchRejected) {
  const std::vector<Token> tokens{Token::literal('x')};
  const auto c = raw_container_pack(tokens, 12, /*original_size=*/2);  // lies about size
  EXPECT_THROW((void)raw_container_unpack(c), DecodeError);
}

TEST(RawContainer, ImplausibleWindowRejected) {
  const std::vector<Token> tokens{Token::literal('x')};
  auto c = raw_container_pack(tokens, 12, 1);
  c[4] = 40;
  EXPECT_THROW((void)raw_container_unpack(c), DecodeError);
}

TEST(RawContainer, DenserThanDeflateOnlyForTinyWindows) {
  // A raw command is window_bits+8 bits; for a 9-bit window a literal costs
  // 17 bits vs up to 9 in Deflate — raw trades density for decoder
  // simplicity. Just pin the arithmetic here.
  const std::vector<Token> tokens(100, Token::literal('e'));
  const auto c9 = raw_container_pack(tokens, 9, 100);
  const auto c15 = raw_container_pack(tokens, 15, 100);
  EXPECT_LT(c9.size(), c15.size());
}

}  // namespace
}  // namespace lzss::core
