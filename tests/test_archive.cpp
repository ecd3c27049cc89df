#include "logger/archive.hpp"

#include <gtest/gtest.h>

#include "container/codec.hpp"
#include "container/format.hpp"
#include "workloads/corpus.hpp"

namespace lzss::logger {
namespace {

std::vector<std::uint8_t> build(const std::vector<std::uint8_t>& data, ArchiveOptions opt = {}) {
  ArchiveWriter w(opt);
  w.append(data);
  return w.finish();
}

TEST(Archive, EmptyArchive) {
  ArchiveWriter w;
  const auto a = w.finish();
  ArchiveReader r(a);
  EXPECT_EQ(r.uncompressed_size(), 0u);
  EXPECT_EQ(r.block_count(), 0u);
  EXPECT_TRUE(r.read(0, 0).empty());
}

TEST(Archive, FullRoundtrip) {
  const auto data = wl::make_corpus("x2e", 300 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 64 * 1024;
  const auto a = build(data, opt);
  ArchiveReader r(a);
  EXPECT_EQ(r.uncompressed_size(), data.size());
  EXPECT_EQ(r.block_count(), 5u);  // ceil(300/64)
  EXPECT_EQ(r.read(0, data.size()), data);
}

TEST(Archive, ChunkedAppendsEqualOneShot) {
  const auto data = wl::make_corpus("wiki", 200 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 32 * 1024;
  ArchiveWriter a(opt), b(opt);
  a.append(data);
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t n = std::min<std::size_t>(9999, data.size() - i);
    b.append({data.data() + i, n});
    i += n;
  }
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Archive, RandomAccessReadsAreCorrect) {
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 64 * 1024;
  const auto a = build(data, opt);
  ArchiveReader r(a);
  for (const auto& [off, len] : {std::pair<std::size_t, std::size_t>{0, 100},
                                {64 * 1024 - 50, 100},   // straddles a block boundary
                                {200'000, 150'000},      // spans multiple blocks
                                {512 * 1024 - 1, 1},     // last byte
                                {123'457, 0}}) {
    const auto got = r.read(off, len);
    ASSERT_EQ(got.size(), len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + static_cast<long>(off)))
        << off << "+" << len;
  }
}

TEST(Archive, ReadsAreLocalNotLinear) {
  // The whole point of the format: reading the tail must not inflate the
  // head. 16 blocks; a 10-byte read near the end touches exactly 1.
  const auto data = wl::make_corpus("x2e", 16 * 64 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 64 * 1024;
  const auto a = build(data, opt);
  ArchiveReader r(a);
  (void)r.read(data.size() - 20, 10);
  EXPECT_EQ(r.last_blocks_touched(), 1u);
  (void)r.read(64 * 1024 - 5, 10);  // boundary read touches exactly 2
  EXPECT_EQ(r.last_blocks_touched(), 2u);
}

TEST(Archive, OutOfRangeReadsRejected) {
  const auto data = wl::make_corpus("wiki", 10 * 1024);
  const auto a = build(data);
  ArchiveReader r(a);
  EXPECT_THROW((void)r.read(data.size(), 1), std::out_of_range);
  EXPECT_THROW((void)r.read(0, data.size() + 1), std::out_of_range);
}

TEST(Archive, MalformedArchivesRejected) {
  const auto data = wl::make_corpus("wiki", 10 * 1024);
  const auto a = build(data);
  const auto kind_of = [](const std::vector<std::uint8_t>& bad) {
    try {
      ArchiveReader r{std::span<const std::uint8_t>(bad)};
    } catch (const container::ContainerError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "malformed archive accepted";
    return container::ContainerError::Kind::kTooLarge;
  };
  {
    auto bad = a;
    bad[0] = 'X';  // magic
    EXPECT_EQ(kind_of(bad), container::ContainerError::Kind::kBadMagic);
  }
  {
    auto bad = a;
    bad[16] ^= 0x01;  // raw_total no longer matches the block lengths
    EXPECT_EQ(kind_of(bad), container::ContainerError::Kind::kBadLength);
  }
  {
    auto bad = a;
    bad.pop_back();  // last block's payload cut short
    EXPECT_EQ(kind_of(bad), container::ContainerError::Kind::kTruncated);
  }
  EXPECT_EQ(kind_of({1, 2, 3}), container::ContainerError::Kind::kTruncated);
}

TEST(Archive, VerifyScansEveryBlockOfCleanArchive) {
  const auto data = wl::make_corpus("wiki", 300 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 64 * 1024;
  const auto a = build(data, opt);
  ArchiveReader r(a);
  EXPECT_EQ(r.verify(), r.block_count());
}

TEST(Archive, CorruptBlockYieldsTypedErrorWithBlockIndex) {
  const auto data = wl::make_corpus("wiki", 300 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 64 * 1024;
  auto a = build(data, opt);
  // Flip a bit mid-archive: lands in some block's compressed bytes, where
  // the per-block CRC-32 (or the deflate structure itself) must catch it.
  a[a.size() / 2] ^= 0x10;
  ArchiveReader r(a);  // the headers are intact; construction succeeds

  using Kind = container::ContainerError::Kind;
  const auto is_block_damage = [](Kind k) {
    return k == Kind::kBadStream || k == Kind::kCrcMismatch || k == Kind::kBadLength;
  };
  std::size_t bad_block = container::ContainerError::kNoBlock;
  try {
    (void)r.read(0, data.size());
    FAIL() << "corrupted archive read back silently";
  } catch (const container::ContainerError& e) {
    EXPECT_TRUE(is_block_damage(e.kind())) << e.what();
    bad_block = e.block();
  }
  ASSERT_LT(bad_block, r.block_count());

  // verify() finds the same damage without a caller-driven read.
  try {
    (void)r.verify();
    FAIL() << "verify() passed a corrupted archive";
  } catch (const container::ContainerError& e) {
    EXPECT_TRUE(is_block_damage(e.kind())) << e.what();
    EXPECT_EQ(e.block(), bad_block);
  }

  // Damage is contained: a different block still reads correctly.
  const std::size_t other = bad_block == 0 ? 1 : 0;
  const std::size_t off = other * opt.block_bytes;
  const auto got = r.read(off, 100);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + static_cast<long>(off)));
}

TEST(Archive, IsAnLzbcContainer) {
  // No trailer: the archive is the superframe header plus one record per
  // block, so any LZBC decoder reads it whole.
  const auto data = wl::make_corpus("x2e", 100 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 32 * 1024;
  const auto a = build(data, opt);
  ASSERT_TRUE(container::looks_like_container(a));
  EXPECT_EQ(container::block_decompress(a, data.size()), data);
  const auto view = container::parse(a, data.size());
  EXPECT_EQ(view.block_size, opt.block_bytes);
  std::size_t size = container::kSuperframeHeaderSize;
  for (const auto& b : view.blocks) size += container::kBlockHeaderSize + b.comp.size();
  EXPECT_EQ(size, a.size());
}

TEST(Archive, BlockSizeBeyondTheLzbcLimitRejected) {
  ArchiveOptions opt;
  opt.block_bytes = container::kMaxBlockSize;
  EXPECT_NO_THROW(ArchiveWriter{opt});
  opt.block_bytes = std::size_t{container::kMaxBlockSize} + 1;
  EXPECT_THROW(ArchiveWriter{opt}, std::invalid_argument);
  opt.block_bytes = 0;
  EXPECT_THROW(ArchiveWriter{opt}, std::invalid_argument);
}

TEST(Archive, HardwareModelPathRoundtrips) {
  const auto data = wl::make_corpus("x2e", 96 * 1024);
  ArchiveOptions opt;
  opt.block_bytes = 32 * 1024;
  opt.use_hw_model = true;
  const auto a = build(data, opt);
  ArchiveReader r(a);
  EXPECT_EQ(r.read(0, data.size()), data);
}

TEST(Archive, SeekabilityCostsMeasurableRatio) {
  // Smaller blocks => more dictionary resets + per-block overhead => bigger
  // archive. Pin the direction and a sane bound.
  const auto data = wl::make_corpus("wiki", 512 * 1024);
  ArchiveOptions fine;
  fine.block_bytes = 16 * 1024;
  ArchiveOptions coarse;
  coarse.block_bytes = 256 * 1024;
  const auto a_fine = build(data, fine);
  const auto a_coarse = build(data, coarse);
  EXPECT_GT(a_fine.size(), a_coarse.size());
  EXPECT_LT(a_fine.size(), a_coarse.size() * 5 / 4);  // within 25 %
}

}  // namespace
}  // namespace lzss::logger
