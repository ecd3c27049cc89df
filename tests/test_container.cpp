// LZBC container: format strictness, codec round-trips, and the claim-pool
// scheduler the service's fan-out path rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "container/scheduler.hpp"
#include "parallel/stripe.hpp"
#include "workloads/corpus.hpp"

namespace lzss::container {
namespace {

BlockCodecConfig small_blocks(std::size_t block_bytes = 16 * 1024) {
  BlockCodecConfig cfg;
  cfg.block_bytes = block_bytes;
  return cfg;
}

ContainerError::Kind parse_kind(std::span<const std::uint8_t> bytes,
                                std::size_t cap = 1u << 30) {
  try {
    (void)parse(bytes, cap);
  } catch (const ContainerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parse unexpectedly succeeded";
  return ContainerError::Kind::kTruncated;
}

// ---------------------------------------------------------------- format --

TEST(ContainerFormat, BlockCountMath) {
  EXPECT_EQ(block_count_for(0, 1024), 0u);
  EXPECT_EQ(block_count_for(1, 1024), 1u);
  EXPECT_EQ(block_count_for(1024, 1024), 1u);
  EXPECT_EQ(block_count_for(1025, 1024), 2u);
  EXPECT_EQ(block_count_for(10 * 1024, 1024), 10u);
}

TEST(ContainerFormat, MagicSniff) {
  const auto packed = block_compress(wl::make_corpus("wiki", 4096), small_blocks());
  EXPECT_TRUE(looks_like_container(packed));
  EXPECT_FALSE(looks_like_container({}));
  const std::vector<std::uint8_t> zlib = {0x78, 0x9c, 0x03, 0x00};
  EXPECT_FALSE(looks_like_container(zlib));
}

TEST(ContainerFormat, EmptyInputIsHeaderOnly) {
  EncodeReport report;
  const auto packed = block_compress({}, small_blocks(), &report);
  EXPECT_EQ(packed.size(), kSuperframeHeaderSize);
  EXPECT_EQ(report.blocks, 0u);
  const auto view = parse(packed, 0);
  EXPECT_EQ(view.raw_total, 0u);
  EXPECT_TRUE(view.blocks.empty());
  EXPECT_TRUE(block_decompress(packed, 0).empty());
}

TEST(ContainerFormat, ParseRejectsEveryHeaderMutation) {
  const auto data = wl::make_corpus("wiki", 40 * 1024);
  const auto packed = block_compress(data, small_blocks());

  // Truncated superframe header.
  EXPECT_EQ(parse_kind(std::span(packed).first(kSuperframeHeaderSize - 1)),
            ContainerError::Kind::kTruncated);

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    auto copy = packed;
    copy[offset] = value;
    return copy;
  };
  EXPECT_EQ(parse_kind(mutate(0, 'X')), ContainerError::Kind::kBadMagic);
  EXPECT_EQ(parse_kind(mutate(4, 99)), ContainerError::Kind::kBadVersion);
  EXPECT_EQ(parse_kind(mutate(5, 1)), ContainerError::Kind::kBadVersion);  // reserved
  EXPECT_EQ(parse_kind(mutate(6, 1)), ContainerError::Kind::kBadVersion);  // reserved

  // block_size = 0 and block_size beyond the cap.
  {
    auto copy = packed;
    for (int i = 0; i < 4; ++i) copy[8 + i] = 0;
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadBlockSize);
    for (int i = 0; i < 4; ++i) copy[8 + i] = 0xFF;  // 4 GiB - 1 block size
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadBlockSize);
  }

  // block_count inconsistent with raw_total: the length-arithmetic guard
  // that also bounds the blocks-vector allocation against hostile headers.
  {
    auto copy = packed;
    copy[12] = static_cast<std::uint8_t>(copy[12] + 1);
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadLength);
    copy = packed;
    for (int i = 0; i < 4; ++i) copy[12 + i] = 0xFF;  // 4 billion blocks
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kBadLength);
  }

  // Method byte garbage and non-zero block-record reserved bytes.
  EXPECT_EQ(parse_kind(mutate(kSuperframeHeaderSize + 8, 7)), ContainerError::Kind::kBadMethod);
  EXPECT_EQ(parse_kind(mutate(kSuperframeHeaderSize + 9, 1)), ContainerError::Kind::kBadMethod);

  // Truncated block payload and trailing garbage.
  EXPECT_EQ(parse_kind(std::span(packed).first(packed.size() - 1)),
            ContainerError::Kind::kTruncated);
  {
    auto copy = packed;
    copy.push_back(0);
    EXPECT_EQ(parse_kind(copy), ContainerError::Kind::kTrailingGarbage);
  }

  // The output cap: raw_total above it is the superframe bomb guard.
  EXPECT_EQ(parse_kind(packed, data.size() - 1), ContainerError::Kind::kTooLarge);
  EXPECT_NO_THROW((void)parse(packed, data.size()));
}

// ----------------------------------------------------------------- codec --

TEST(ContainerCodec, RoundTripsAcrossSizes) {
  const auto cfg = small_blocks();
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{4095}, std::size_t{16 * 1024}, std::size_t{16 * 1024 + 1},
        std::size_t{100 * 1024}, std::size_t{256 * 1024}}) {
    const auto data = wl::make_corpus("mixed", size);
    EncodeReport report;
    const auto packed = block_compress(data, cfg, &report);
    EXPECT_EQ(report.blocks, block_count_for(size, report.effective_block_bytes)) << size;
    DecodeReport decode;
    EXPECT_EQ(block_decompress(packed, size, &decode), data) << size;
    EXPECT_EQ(decode.blocks, report.blocks) << size;
  }
}

TEST(ContainerCodec, BlockSizeClampedUpToDictionary) {
  // A block smaller than the dictionary would waste the window; the shared
  // stripe clamp (parallel/stripe.hpp) raises it, visibly in the report.
  auto cfg = small_blocks(1024);
  const auto data = wl::make_corpus("wiki", 32 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, cfg, &report);
  EXPECT_EQ(report.effective_block_bytes, cfg.hw.dict_size());
  EXPECT_EQ(block_decompress(packed, data.size()), data);
}

TEST(ContainerCodec, IncompressibleBlocksAreStored) {
  // Random bytes don't deflate; every block must degrade to a stored record
  // and the container must stay within header overhead of the input.
  const auto data = wl::make_corpus("random", 64 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, small_blocks(), &report);
  EXPECT_EQ(report.stored_blocks, report.blocks);
  EXPECT_LE(packed.size(), data.size() + kSuperframeHeaderSize + report.blocks * kBlockHeaderSize);
  DecodeReport decode;
  EXPECT_EQ(block_decompress(packed, data.size(), &decode), data);
  EXPECT_EQ(decode.stored_blocks, report.blocks);
}

TEST(ContainerCodec, CompressibleBlocksShrink) {
  const auto data = wl::make_corpus("zeros", 64 * 1024);
  EncodeReport report;
  const auto packed = block_compress(data, small_blocks(), &report);
  EXPECT_EQ(report.stored_blocks, 0u);
  EXPECT_LT(packed.size(), data.size() / 4);
}

TEST(ContainerCodec, CrcFlipYieldsTypedMismatchNeverPartialOutput) {
  const auto data = wl::make_corpus("wiki", 48 * 1024);
  auto packed = block_compress(data, small_blocks());
  // Flip the CRC of the *last* block: earlier blocks decode fine, but the
  // request as a whole must still fail typed — all-or-nothing.
  const auto view = parse(packed, data.size());
  ASSERT_GE(view.blocks.size(), 2u);
  const auto* crc_addr = view.blocks.back().comp.data() - 4;  // crc32 precedes payload
  packed[static_cast<std::size_t>(crc_addr - packed.data())] ^= 0x01;
  try {
    (void)block_decompress(packed, data.size());
    FAIL() << "corrupted CRC round-tripped";
  } catch (const ContainerError& e) {
    EXPECT_EQ(e.kind(), ContainerError::Kind::kCrcMismatch);
  }
}

TEST(ContainerCodec, EncodeBlockNeverThrowsOnPathologicalInput) {
  // The fan-out work body relies on encode_block being total: a block the
  // model can't improve still yields a valid (stored) record.
  const auto cfg = hw::HwConfig::speed_optimized();
  for (const char* kind : {"random", "zeros", "wiki"}) {
    const auto data = wl::make_corpus(kind, 8 * 1024);
    const auto result = encode_block(cfg, nullptr, data);
    ASSERT_GE(result.record.size(), kBlockHeaderSize);
    const std::uint32_t comp_len = static_cast<std::uint32_t>(result.record[0]) |
                                   (static_cast<std::uint32_t>(result.record[1]) << 8) |
                                   (static_cast<std::uint32_t>(result.record[2]) << 16) |
                                   (static_cast<std::uint32_t>(result.record[3]) << 24);
    EXPECT_EQ(result.record.size(), kBlockHeaderSize + comp_len);
  }
}

// ------------------------------------------------------------- scheduler --

TEST(ContainerFanout, ClaimsAreUniqueAndExhaustive) {
  Fanout fan(5);
  std::vector<std::size_t> got;
  while (auto i = fan.claim()) {
    got.push_back(*i);
    fan.complete(*i);
  }
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(fan.all_complete());
}

TEST(ContainerFanout, AbandonedBlocksAreReclaimed) {
  // A helper dying mid-block hands its claim back; the next claimer gets
  // that block before any fresh one.
  Fanout fan(3);
  const auto first = fan.claim();
  ASSERT_TRUE(first.has_value());
  fan.abandon(*first);
  const auto again = fan.claim();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
}

TEST(ContainerFanout, QuiesceStopsClaimsAndWaitsInFlight) {
  Fanout fan(4);
  const auto claimed = fan.claim();
  ASSERT_TRUE(claimed.has_value());
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fan.complete(*claimed);
  });
  fan.quiesce();  // must block until the in-flight claim lands
  EXPECT_FALSE(fan.claim().has_value());
  finisher.join();
}

TEST(ContainerFanout, RunFanoutInlineOnlyWhenPoolRefuses) {
  // Queue always full: every helper is rejected and the parent still
  // finishes every block on its own thread — the no-deadlock guarantee.
  std::atomic<std::size_t> ran{0};
  const auto report = run_fanout(
      8, 4, [&](std::size_t, hw::Compressor*) { ran.fetch_add(1); },
      [](std::function<void(hw::Compressor&)>) { return false; }, nullptr);
  EXPECT_EQ(ran.load(), 8u);
  EXPECT_EQ(report.inline_blocks, 8u);
  EXPECT_EQ(report.helper_blocks, 0u);
  EXPECT_EQ(report.helpers_rejected, 4u);
}

TEST(ContainerFanout, RunFanoutSplitsWorkWithRealHelpers) {
  // Accepted helpers run on real threads with their own engine, exactly as
  // pool workers would; every block runs exactly once.
  std::vector<std::thread> helpers;
  std::vector<std::atomic<int>> runs(64);
  const auto report = run_fanout(
      64, 3,
      [&](std::size_t i, hw::Compressor*) {
        runs[i].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      [&](std::function<void(hw::Compressor&)> task) {
        helpers.emplace_back([task = std::move(task)] {
          hw::Compressor engine(hw::HwConfig::speed_optimized());
          task(engine);
        });
        return true;
      },
      nullptr);
  for (auto& t : helpers) t.join();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(report.helpers_enqueued, 3u);
  EXPECT_EQ(report.inline_blocks + report.helper_blocks, 64u);
  EXPECT_GT(report.helper_blocks, 0u);
}

TEST(ContainerFanout, ZeroBlocksIsANoOp) {
  const auto report = run_fanout(
      0, 4, [](std::size_t, hw::Compressor*) { FAIL() << "no blocks to run"; },
      [](std::function<void(hw::Compressor&)>) { return true; }, nullptr);
  EXPECT_EQ(report.blocks, 0u);
  EXPECT_EQ(report.helpers_enqueued, 0u);
}

// ---------------------------------------------------------- stripe clamp --

TEST(StripeClamp, EngineCountAndBlockBytes) {
  EXPECT_EQ(par::clamp_stripe_count(64 * 1024, 4096, 4), 4u);
  EXPECT_EQ(par::clamp_stripe_count(6 * 1024, 4096, 16), 1u);   // < 2 dictionaries
  EXPECT_EQ(par::clamp_stripe_count(16 * 1024, 4096, 16), 4u);  // data-bound
  EXPECT_EQ(par::clamp_stripe_count(1024, 4096, 0), 1u);        // floor of one
  EXPECT_EQ(par::clamp_block_bytes(1024, 4096), 4096u);
  EXPECT_EQ(par::clamp_block_bytes(256 * 1024, 4096), 256u * 1024);
}

}  // namespace
}  // namespace lzss::container
