#include "swmodel/ppc440_model.hpp"

#include <gtest/gtest.h>

#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::swm {
namespace {

/// Prices one encode of @p bytes of @p corpus at zlib @p level.
SwTiming timing_for(const std::string& corpus, int level, std::size_t bytes,
                    const Ppc440Costs& costs = {}) {
  core::MatchParams p;
  p.window_bits = 12;
  p.hash.bits = 15;
  core::MatchFinderEncoder enc(p.with_level(level));
  const auto data = wl::make_corpus(corpus, bytes);
  const auto tokens = enc.encode(data);
  return price(enc.finder_stats(), tokens.size(), bytes, costs);
}

TEST(Ppc440, CalibrationAnchorForTableOne) {
  // zlib level 1 on text at 400 MHz: the paper's speedup of 15-20x over a
  // ~50 MB/s compressor puts the software baseline at roughly 2.5-3.3 MB/s.
  const std::size_t n = 512 * 1024;
  const auto t = timing_for("wiki", 1, n);
  EXPECT_GT(t.mb_per_s, 2.2);
  EXPECT_LT(t.mb_per_s, 3.8);
}

TEST(Ppc440, HigherLevelIsSlower) {
  const std::size_t n = 256 * 1024;
  const auto t1 = timing_for("wiki", 1, n);
  const auto t9 = timing_for("wiki", 9, n);
  EXPECT_LT(t9.mb_per_s, t1.mb_per_s);
}

TEST(Ppc440, MoreWorkMeansMoreCycles) {
  core::FinderStats small{};
  small.insertions = 10;
  core::FinderStats large = small;
  large.probes = 1000;
  large.compare_bytes = 5000;
  EXPECT_GT(price(large, 100, 1000).cycles, price(small, 100, 1000).cycles);
  EXPECT_GT(price(small, 200, 1000).cycles, price(small, 100, 1000).cycles);
}

TEST(Ppc440, ScalesLinearlyWithInput) {
  const auto ta = timing_for("wiki", 1, 128 * 1024);
  const auto tb = timing_for("wiki", 1, 512 * 1024);
  EXPECT_NEAR(tb.mb_per_s / ta.mb_per_s, 1.0, 0.15);
}

TEST(Ppc440, CustomClockScalesThroughput) {
  Ppc440Costs half;
  half.clock_mhz = 200.0;
  const auto t400 = timing_for("wiki", 1, 128 * 1024);
  const auto t200 = timing_for("wiki", 1, 128 * 1024, half);
  EXPECT_NEAR(t400.mb_per_s / t200.mb_per_s, 2.0, 1e-6);
}

TEST(Ppc440, ZeroBytesZeroTime) {
  const auto t = price(core::FinderStats{}, 0, 0);
  EXPECT_EQ(t.cycles, 0.0);
  EXPECT_EQ(t.mb_per_s, 0.0);
}

}  // namespace
}  // namespace lzss::swm
