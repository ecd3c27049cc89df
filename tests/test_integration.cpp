// Cross-module integration: hardware model vs software baseline vs the
// Deflate/zlib stack, end to end.
#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "estimator/evaluate.hpp"
#include "hw/compressor.hpp"
#include "hw/pipeline.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "swmodel/ppc440_model.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

TEST(Integration, HwTokensThroughZlibContainer) {
  const auto data = wl::make_corpus("wiki", 128 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  const auto z = deflate::zlib_wrap_tokens(res.tokens, data, 12);
  EXPECT_EQ(deflate::zlib_decompress(z), data);
}

TEST(Integration, HwAndSwCompressComparably) {
  // Same algorithm family, same window/hash/level: the greedy hardware and
  // zlib's deflate_fast should land within ~10 % of each other.
  const auto data = wl::make_corpus("wiki", 256 * 1024);

  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto hw_res = comp.compress(data);
  const auto hw_size = deflate::fixed_block_bits(hw_res.tokens) / 8;

  core::MatchParams p = core::MatchParams::speed_optimized();
  core::MatchFinderEncoder sw(p);
  const auto sw_tokens = sw.encode(data);
  const auto sw_size = deflate::fixed_block_bits(sw_tokens) / 8;

  const double rel = static_cast<double>(hw_size) / static_cast<double>(sw_size);
  EXPECT_GT(rel, 0.90);
  EXPECT_LT(rel, 1.12);
}

TEST(Integration, HardwareSpeedupOverSoftwareBaseline) {
  // Table I's headline claim: 15-20x at 100 MHz vs zlib on the 400 MHz
  // PowerPC. We accept a slightly wider band for synthetic data.
  const auto data = wl::make_corpus("wiki", 512 * 1024);

  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const double hw_mbps = comp.compress(data).stats.mb_per_s(100.0);

  core::MatchParams p = core::MatchParams::speed_optimized();
  core::MatchFinderEncoder sw(p);
  const auto tokens = sw.encode(data);
  const double sw_mbps = swm::price(sw.finder_stats(), tokens.size(), data.size()).mb_per_s;

  const double speedup = hw_mbps / sw_mbps;
  EXPECT_GT(speedup, 12.0);
  EXPECT_LT(speedup, 25.0);
}

TEST(Integration, DynamicHuffmanBeatsFixedOnHwTokens) {
  // Quantifies the paper's remark that the fixed table trades compression
  // for speed.
  const auto data = wl::make_corpus("wiki", 256 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  const auto fixed_size = deflate::deflate_fixed(res.tokens).size();
  const auto dyn_size = deflate::deflate_dynamic(res.tokens).size();
  EXPECT_LT(dyn_size, fixed_size);
  // ...but not by an absurd margin on English-like text.
  EXPECT_GT(static_cast<double>(dyn_size), 0.65 * static_cast<double>(fixed_size));
  EXPECT_EQ(deflate::inflate_raw(deflate::deflate_dynamic(res.tokens)), data);
}

TEST(Integration, PipelineMatchesOfflineTokenPath) {
  const auto data = wl::make_corpus("x2e", 100 * 1024);
  // Offline: compress() collecting tokens, then encode.
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto tokens = comp.compress(data).tokens;
  const auto offline = deflate::deflate_fixed(tokens);
  // Online: full pipeline with channels, Huffman stage and DMA.
  const auto report = hw::run_system(hw::HwConfig::speed_optimized(), data);
  EXPECT_EQ(report.deflate_stream, offline);
}

TEST(Integration, EstimatorAgreesWithDirectRun) {
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto ev = est::evaluate(hw::HwConfig::speed_optimized(), data);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  EXPECT_EQ(ev.stats.total_cycles, res.stats.total_cycles);
  EXPECT_EQ(ev.compressed_bytes, (deflate::fixed_block_bits(res.tokens) + 7) / 8);
}

TEST(Integration, SwAndHwAgreeOnIncompressibleData) {
  const auto data = wl::make_corpus("random", 64 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto hw_tokens = comp.compress(data).tokens;
  core::MatchFinderEncoder sw(core::MatchParams::speed_optimized());
  const auto sw_tokens = sw.encode(data);
  // Virtually everything is literals on both paths.
  auto literal_fraction = [](const std::vector<core::Token>& ts) {
    std::size_t lits = 0;
    for (const auto& t : ts)
      if (t.is_literal()) ++lits;
    return static_cast<double>(lits) / static_cast<double>(ts.size());
  };
  EXPECT_GT(literal_fraction(hw_tokens), 0.999);
  EXPECT_GT(literal_fraction(sw_tokens), 0.999);
}

TEST(Integration, EndToEndGzipOfHwStreamViaSwContainer) {
  const auto data = wl::make_corpus("mixed", 64 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto tokens = comp.compress(data).tokens;
  const auto g = deflate::gzip_wrap(deflate::deflate_fixed(tokens),
                                    checksum::crc32(data),
                                    static_cast<std::uint32_t>(data.size()));
  EXPECT_EQ(deflate::gzip_decompress(g), data);
}

}  // namespace
}  // namespace lzss
