#include "parallel/multi_engine.hpp"

#include <gtest/gtest.h>

#include "deflate/inflate.hpp"
#include "workloads/corpus.hpp"

namespace lzss::par {
namespace {

TEST(MultiEngine, SingleEngineMatchesPlainCompressor) {
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  const auto report = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 1);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  EXPECT_EQ(report.parallel_cycles, res.stats.total_cycles);
  EXPECT_EQ(report.serial_cycles, res.stats.total_cycles);
  EXPECT_EQ(deflate::inflate_raw(report.deflate_stream), data);
}

TEST(MultiEngine, MultiBlockStreamInflates) {
  const auto data = wl::make_corpus("x2e", 256 * 1024);
  for (const unsigned engines : {2u, 3u, 4u, 7u}) {
    const auto report = compress_multi_engine(hw::HwConfig::speed_optimized(), data, engines);
    EXPECT_EQ(deflate::inflate_raw(report.deflate_stream), data) << engines;
    EXPECT_EQ(report.engines.size(), engines);
  }
}

TEST(MultiEngine, ThroughputScalesWithEngines) {
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  const auto r1 = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 1);
  const auto r4 = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 4);
  const double s1 = r1.aggregate_mb_per_s(100.0);
  const double s4 = r4.aggregate_mb_per_s(100.0);
  EXPECT_GT(s4, 3.2 * s1);  // near-linear scaling of the on-chip bank
  EXPECT_GT(r4.speedup_over_single_unit(), 3.2);
  EXPECT_LE(r4.speedup_over_single_unit(), 4.05);
}

TEST(MultiEngine, SmallStripesCostCompression) {
  // Each stripe restarts the dictionary: more engines => slightly worse
  // ratio. The effect must exist but stay small at healthy stripe sizes.
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  const auto r1 = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 1);
  const auto r8 = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 8);
  EXPECT_LE(r8.ratio(), r1.ratio());
  EXPECT_GT(r8.ratio(), r1.ratio() * 0.9);
}

TEST(MultiEngine, DeterministicAcrossRuns) {
  const auto data = wl::make_corpus("mixed", 256 * 1024);
  const auto a = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 5);
  const auto b = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 5);
  EXPECT_EQ(a.deflate_stream, b.deflate_stream);
  EXPECT_EQ(a.parallel_cycles, b.parallel_cycles);
}

TEST(MultiEngine, StripeRunnerDoesNotChangeTheStream) {
  // The runner decides only where and in which order stripes run; here it
  // runs them backwards, and the stitched stream must not notice.
  const auto data = wl::make_corpus("mixed", 256 * 1024);
  const auto plain = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 5);
  std::vector<std::size_t> order;
  const auto reversed = compress_multi_engine(
      hw::HwConfig::speed_optimized(), data, 5,
      [&](std::size_t stripes, const std::function<void(std::size_t)>& run_stripe) {
        for (std::size_t i = stripes; i-- > 0;) {
          order.push_back(i);
          run_stripe(i);
        }
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(reversed.deflate_stream, plain.deflate_stream);
  EXPECT_EQ(reversed.parallel_cycles, plain.parallel_cycles);
  EXPECT_EQ(reversed.serial_cycles, plain.serial_cycles);
}

TEST(MultiEngine, EngineCountClampedForTinyInputs) {
  const auto data = wl::make_corpus("wiki", 6 * 1024);  // < 2 dictionaries
  const auto report = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 16);
  EXPECT_EQ(report.engines.size(), 1u);
  EXPECT_EQ(deflate::inflate_raw(report.deflate_stream), data);
}

TEST(MultiEngine, ReportRecordsRequestedVersusEffectiveEngines) {
  // The stripe >= dictionary clamp must be visible in the report, not a
  // silent shrink: a tiny input asked to run on 16 engines runs on 1.
  const auto tiny = wl::make_corpus("wiki", 6 * 1024);
  const auto clamped = compress_multi_engine(hw::HwConfig::speed_optimized(), tiny, 16);
  EXPECT_EQ(clamped.requested_engines, 16u);
  EXPECT_EQ(clamped.effective_engines, 1u);
  EXPECT_EQ(clamped.effective_engines, clamped.engines.size());

  const auto big = wl::make_corpus("wiki", 512 * 1024);
  const auto full = compress_multi_engine(hw::HwConfig::speed_optimized(), big, 4);
  EXPECT_EQ(full.requested_engines, 4u);
  EXPECT_EQ(full.effective_engines, 4u);
  EXPECT_EQ(full.engines.size(), 4u);
}

TEST(MultiEngine, AggregateThroughputUnitsAreMbPerS) {
  // Pin the unit contract bench/ext_multi_engine labels rely on: MB/s with
  // MB = 10^6 bytes. 5e6 bytes in 1e7 cycles at 100 MHz is 0.1 s of on-chip
  // wall time, i.e. exactly 50 MB/s — any other unit breaks this equality.
  MultiEngineReport report;
  report.input_bytes = 5'000'000;
  report.parallel_cycles = 10'000'000;
  EXPECT_DOUBLE_EQ(report.aggregate_mb_per_s(100.0), 50.0);
  EXPECT_DOUBLE_EQ(report.aggregate_mb_per_s(200.0), 100.0);  // linear in clock
}

TEST(MultiEngine, ZeroEnginesRejected) {
  const auto data = wl::make_corpus("wiki", 1024);
  EXPECT_THROW((void)compress_multi_engine(hw::HwConfig::speed_optimized(), data, 0),
               std::invalid_argument);
}

TEST(MultiEngine, EmptyInput) {
  const auto report = compress_multi_engine(hw::HwConfig::speed_optimized(), {}, 4);
  EXPECT_TRUE(deflate::inflate_raw(report.deflate_stream).empty());
}

TEST(MultiEngine, PerEngineStatsCoverAllBytes) {
  const auto data = wl::make_corpus("x2e", 300 * 1024);
  const auto report = compress_multi_engine(hw::HwConfig::speed_optimized(), data, 3);
  std::uint64_t bytes = 0;
  for (const auto& e : report.engines) bytes += e.bytes_in;
  EXPECT_EQ(bytes, data.size());
}

}  // namespace
}  // namespace lzss::par
