#include "hw/decompressor.hpp"

#include <gtest/gtest.h>

#include "deflate/encoder.hpp"
#include "hw/compressor.hpp"
#include "hw/huffman_decode_stage.hpp"
#include "hw/pipeline.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::hw {
namespace {

TEST(DecompressorConfig, Validation) {
  DecompressorConfig c;
  c.window_bits = 8;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = DecompressorConfig{};
  c.bus_width_bytes = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_NO_THROW(DecompressorConfig{}.validate());
}

TEST(HwDecompressor, LiteralsOnly) {
  Decompressor d(DecompressorConfig{});
  std::vector<core::Token> tokens{core::Token::literal('a'), core::Token::literal('b')};
  const auto res = d.decompress(tokens);
  EXPECT_EQ(res.data, (std::vector<std::uint8_t>{'a', 'b'}));
  EXPECT_EQ(res.stats.literals, 2u);
}

TEST(HwDecompressor, SimpleMatch) {
  Decompressor d(DecompressorConfig{});
  std::vector<core::Token> tokens;
  for (const char c : std::string("snowy ")) tokens.push_back(core::Token::literal(c));
  tokens.push_back(core::Token::match(6, 4));
  const auto res = d.decompress(tokens);
  EXPECT_EQ(std::string(res.data.begin(), res.data.end()), "snowy snow");
}

// Overlapping copies at every critical distance.
class OverlapDistances : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OverlapDistances, ReplicatesCorrectly) {
  const std::uint32_t dist = GetParam();
  std::vector<core::Token> tokens;
  std::vector<std::uint8_t> expected;
  for (std::uint32_t i = 0; i < dist; ++i) {
    tokens.push_back(core::Token::literal(static_cast<std::uint8_t>('A' + i)));
    expected.push_back(static_cast<std::uint8_t>('A' + i));
  }
  tokens.push_back(core::Token::match(dist, 200));
  for (std::uint32_t i = 0; i < 200; ++i) expected.push_back(expected[i % dist]);

  Decompressor d(DecompressorConfig{});
  const auto res = d.decompress(tokens);
  EXPECT_EQ(res.data, expected);
}

INSTANTIATE_TEST_SUITE_P(Distances, OverlapDistances,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u));

TEST(HwDecompressor, MalformedStreamsThrow) {
  Decompressor d(DecompressorConfig{});
  std::vector<core::Token> too_far{core::Token::literal('x'), core::Token::match(2, 3)};
  EXPECT_THROW((void)d.decompress(too_far), core::DecodeError);
  std::vector<core::Token> beyond_window;
  for (int i = 0; i < 5000; ++i)
    beyond_window.push_back(core::Token::literal(static_cast<std::uint8_t>(i)));
  beyond_window.push_back(core::Token::match(4096, 3));  // == window size
  EXPECT_THROW((void)d.decompress(beyond_window), core::DecodeError);
}

TEST(HwDecompressor, CycleAccountingSumsUp) {
  hw::Compressor comp(HwConfig::speed_optimized());
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto tokens = comp.compress(data).tokens;
  Decompressor d(DecompressorConfig{});
  const auto res = d.decompress(tokens);
  EXPECT_EQ(res.data, data);
  const auto& s = res.stats;
  EXPECT_EQ(s.literal_cycles + s.copy_cycles + s.idle_cycles + s.stall_cycles, s.total_cycles);
  EXPECT_EQ(s.bytes_out, data.size());
}

TEST(HwDecompressor, FasterThanCompression) {
  // Decompression needs no matching: ~1 cycle/literal and up to 4 bytes per
  // copy cycle, so it must beat the ~2 cycles/byte compression figure.
  hw::Compressor comp(HwConfig::speed_optimized());
  const auto data = wl::make_corpus("wiki", 128 * 1024);
  const auto cres = comp.compress(data);
  Decompressor d(DecompressorConfig{});
  const auto dres = d.decompress(cres.tokens);
  EXPECT_LT(dres.stats.cycles_per_byte(), cres.stats.cycles_per_byte());
  EXPECT_GT(dres.stats.mb_per_s(100.0), 60.0);
}

TEST(HwDecompressor, NarrowBusSlows) {
  hw::Compressor comp(HwConfig::speed_optimized());
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto tokens = comp.compress(data).tokens;
  DecompressorConfig wide{};
  DecompressorConfig narrow{};
  narrow.bus_width_bytes = 1;
  Decompressor dw(wide), dn(narrow);
  const auto rw = dw.decompress(tokens);
  const auto rn = dn.decompress(tokens);
  EXPECT_EQ(rw.data, rn.data);
  EXPECT_LT(rw.stats.total_cycles, rn.stats.total_cycles);
}

// Round-trip compressor -> decompressor across corpora.
class HwCodecRoundtrip : public ::testing::TestWithParam<std::string> {};

TEST_P(HwCodecRoundtrip, CompressorFeedsDecompressor) {
  const auto data = wl::make_corpus(GetParam(), 96 * 1024);
  hw::Compressor comp(HwConfig::speed_optimized());
  const auto tokens = comp.compress(data).tokens;
  Decompressor d(DecompressorConfig{});
  EXPECT_EQ(d.decompress(tokens).data, data);
}

INSTANTIATE_TEST_SUITE_P(AllCorpora, HwCodecRoundtrip,
                         ::testing::Values("wiki", "x2e", "netlog", "random", "zeros", "periodic64",
                                           "mixed"));

// --- fixed-Huffman decode stage --------------------------------------------

std::vector<core::Token> run_decode_stage(const std::vector<std::uint8_t>& stream) {
  stream::Channel<std::uint32_t> words(2);
  stream::Channel<core::Token> tokens(1u << 16);
  HuffmanDecodeStage stage(words, tokens);
  std::size_t fed = 0;
  std::uint64_t cycles = 0;
  while (!stage.finished()) {
    if (fed < stream.size() && words.can_push()) {
      std::uint32_t w = 0;
      for (unsigned lane = 0; lane < 4 && fed < stream.size(); ++lane, ++fed) {
        w |= static_cast<std::uint32_t>(stream[fed]) << (8 * lane);
      }
      words.push(w);
    }
    if (fed >= stream.size()) stage.set_input_done();
    stage.tick();
    words.tick();
    tokens.tick();
    if (++cycles > stream.size() * 200 + 100000) {
      ADD_FAILURE() << "decode stage wedged";
      break;
    }
  }
  std::vector<core::Token> out;
  while (!tokens.empty()) {
    out.push_back(tokens.pop());
    tokens.tick();
  }
  return out;
}

TEST(HuffmanDecodeStage, InvertsTheEncoder) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 20000);
  const auto tokens = enc.encode(data);
  const auto stream = deflate::deflate_fixed(tokens);
  const auto decoded = run_decode_stage(stream);
  EXPECT_EQ(decoded, tokens);
}

TEST(HuffmanDecodeStage, RejectsNonFixedBlocks) {
  // A dynamic-block stream must be refused, not mis-decoded.
  bits::BitWriter w;
  w.put_bits(1, 1);
  w.put_bits(0b10, 2);
  w.put_bits(0, 29);  // filler so a full step fits
  const auto stream = w.take();
  EXPECT_ANY_THROW((void)run_decode_stage(stream));
}

TEST(HuffmanDecodeStage, AllLiteralValuesSurvive) {
  std::vector<core::Token> tokens;
  for (int v = 0; v < 256; ++v) tokens.push_back(core::Token::literal(static_cast<std::uint8_t>(v)));
  const auto stream = deflate::deflate_fixed(tokens);
  EXPECT_EQ(run_decode_stage(stream), tokens);
}

TEST(HuffmanDecodeStage, AllLengthAndDistanceBands) {
  std::vector<core::Token> tokens;
  std::vector<std::uint8_t> history(40000, 'x');
  for (const auto& b : history) tokens.push_back(core::Token::literal(b));
  for (std::uint32_t len : {3u, 4u, 10u, 11u, 18u, 19u, 114u, 115u, 257u, 258u}) {
    for (std::uint32_t dist : {1u, 4u, 5u, 24u, 25u, 192u, 193u, 1024u, 4096u, 24576u, 32000u}) {
      tokens.push_back(core::Token::match(dist, len));
    }
  }
  const auto stream = deflate::deflate_fixed(tokens);
  EXPECT_EQ(run_decode_stage(stream), tokens);
}

// --- full decode pipeline ---------------------------------------------------

TEST(DecodePipeline, RoundTripThroughBothSystems) {
  const auto data = wl::make_corpus("x2e", 100 * 1024);
  const auto enc_report = run_system(HwConfig::speed_optimized(), data);
  DecompressorConfig dcfg{};
  const auto dec_report = run_decode_system(dcfg, enc_report.deflate_stream);
  EXPECT_EQ(dec_report.data, data);
  EXPECT_GT(dec_report.mb_per_s(100.0), 30.0);
}

TEST(DecodePipeline, SlowDmaOnlyAddsIdleCycles) {
  const auto data = wl::make_corpus("wiki", 32 * 1024);
  const auto enc = run_system(HwConfig::speed_optimized(), data);
  DecompressorConfig dcfg{};
  const auto fast = run_decode_system(dcfg, enc.deflate_stream,
                                      stream::DmaTimings{.setup_cycles = 0, .bytes_per_beat = 4});
  const auto slow = run_decode_system(
      dcfg, enc.deflate_stream, stream::DmaTimings{.setup_cycles = 30000, .bytes_per_beat = 4});
  EXPECT_EQ(fast.data, slow.data);
  EXPECT_GE(slow.total_cycles, fast.total_cycles + 30000);
}

}  // namespace
}  // namespace lzss::hw
