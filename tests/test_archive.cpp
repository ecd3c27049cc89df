#include "logger/archive.hpp"

#include <gtest/gtest.h>

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
  auto a = build(data);
  {
    auto bad = a;
    bad.back() = 'X';  // magic
    EXPECT_THROW(ArchiveReader{std::span<const std::uint8_t>(bad)}, std::runtime_error);
  }
  {
    auto bad = a;
    bad[bad.size() - 13] ^= 0x01;  // total size field
    EXPECT_THROW(ArchiveReader{std::span<const std::uint8_t>(bad)}, std::runtime_error);
  }
  const std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_THROW(ArchiveReader{std::span<const std::uint8_t>(tiny)}, std::runtime_error);
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
  // the per-block Adler-32 (or the deflate structure itself) must catch it.
  a[a.size() / 2] ^= 0x10;
  ArchiveReader r(a);  // trailer + index are intact; construction succeeds

  std::size_t bad_block = ArchiveError::kNoBlock;
  try {
    (void)r.read(0, data.size());
    FAIL() << "corrupted archive read back silently";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveError::Kind::kBlockCorrupt);
    bad_block = e.block();
  }
  ASSERT_LT(bad_block, r.block_count());

  // verify() finds the same damage without a caller-driven read.
  try {
    (void)r.verify();
    FAIL() << "verify() passed a corrupted archive";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveError::Kind::kBlockCorrupt);
    EXPECT_EQ(e.block(), bad_block);
  }

  // Damage is contained: a different block still reads correctly.
  const std::size_t other = bad_block == 0 ? 1 : 0;
  const std::size_t off = other * opt.block_bytes;
  const auto got = r.read(off, 100);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + static_cast<long>(off)));
}

TEST(Archive, TypedErrorsOnMalformedTrailers) {
  const auto data = wl::make_corpus("wiki", 10 * 1024);
  const auto a = build(data);
  {
    auto bad = a;
    bad.back() = 'X';
    try {
      ArchiveReader r{std::span<const std::uint8_t>(bad)};
      FAIL() << "bad magic accepted";
    } catch (const ArchiveError& e) {
      EXPECT_EQ(e.kind(), ArchiveError::Kind::kBadMagic);
    }
  }
  {
    const std::vector<std::uint8_t> tiny{1, 2, 3};
    try {
      ArchiveReader r{std::span<const std::uint8_t>(tiny)};
      FAIL() << "3-byte archive accepted";
    } catch (const ArchiveError& e) {
      EXPECT_EQ(e.kind(), ArchiveError::Kind::kTruncated);
    }
  }
  // Hand-built trailers whose counts wrap 64-bit arithmetic: the reader must
  // reject them before it reads past the buffer.
  const auto trailer = [](std::size_t index_bytes, std::uint64_t entries,
                          std::vector<std::uint64_t> index_words) {
    std::vector<std::uint8_t> out(index_bytes, 0);
    for (std::size_t w = 0; w < index_words.size(); ++w)
      for (int b = 0; b < 8; ++b)
        out[w * 8 + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(index_words[w] >> (8 * b));
    for (const std::uint64_t v : {entries, std::uint64_t{0}})
      for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    const auto empty = ArchiveWriter().finish();
    out.insert(out.end(), empty.end() - 4, empty.end());  // the magic
    return out;
  };
  const auto kind_of = [](const std::vector<std::uint8_t>& bad) {
    try {
      ArchiveReader r{std::span<const std::uint8_t>(bad)};
    } catch (const ArchiveError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "malformed trailer accepted";
    return ArchiveError::Kind::kBadMagic;
  };
  // 68 bytes, entries = 2^61 + 2: entries * 24 wraps to 48.
  EXPECT_EQ(kind_of(trailer(48, (std::uint64_t{1} << 61) + 2, {})),
            ArchiveError::Kind::kTruncated);
  // compressed_offset + compressed_size wraps to 1.
  EXPECT_EQ(kind_of(trailer(24, 1, {~std::uint64_t{0}, 2, 0})),
            ArchiveError::Kind::kBadIndex);
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
