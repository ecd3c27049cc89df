// MatchFinder backend suite: SIMD comparer correctness (incl. buffer-edge
// over-read fixtures for the sanitize job) and round-trip equivalence of
// every backend, greedy and lazy, on every workload corpus through both
// decoders. The hash-chain backend's exact tokens and census are pinned by
// EncoderGolden (test_golden.cpp).
#include "lzss/match_finder.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "deflate/encoder.hpp"
#include "hw/decompressor.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/simd_compare.hpp"
#include "workloads/corpus.hpp"

namespace lzss::core {
namespace {

std::vector<simd::CompareIsa> available_isas() {
  std::vector<simd::CompareIsa> isas{simd::CompareIsa::kScalar};
  if (simd::best_isa() >= simd::CompareIsa::kSse2) isas.push_back(simd::CompareIsa::kSse2);
  if (simd::best_isa() >= simd::CompareIsa::kAvx2) isas.push_back(simd::CompareIsa::kAvx2);
  return isas;
}

/// RAII: restore the dispatch default however a test exits.
struct IsaGuard {
  ~IsaGuard() { simd::force_isa(simd::best_isa()); }
};

TEST(SimdCompare, ForceIsaClampsToBest) {
  IsaGuard guard;
  simd::force_isa(simd::CompareIsa::kAvx2);
  EXPECT_LE(simd::active_isa(), simd::best_isa());
  simd::force_isa(simd::CompareIsa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::CompareIsa::kScalar);
}

TEST(SimdCompare, NamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::CompareIsa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::CompareIsa::kSse2), "sse2");
  EXPECT_STREQ(simd::isa_name(simd::CompareIsa::kAvx2), "avx2");
}

// Every ISA must agree with the scalar loop for a planted first-mismatch at
// every offset across the vector-width boundaries, and for fully-equal
// buffers of every length around them.
TEST(SimdCompare, AllIsasMatchScalarAtEveryOffset) {
  IsaGuard guard;
  constexpr std::size_t kN = 300;  // > kMaxMatch, spans many 16/32-byte blocks
  rng::Xoshiro256 rng(42);
  std::vector<std::uint8_t> a(kN), b(kN);
  for (auto& byte : a) byte = rng.next_byte();

  for (std::size_t mismatch = 0; mismatch <= kN; ++mismatch) {
    b = a;
    if (mismatch < kN) b[mismatch] = static_cast<std::uint8_t>(a[mismatch] ^ 0x5A);
    for (const auto isa : available_isas()) {
      simd::force_isa(isa);
      EXPECT_EQ(simd::match_length(a.data(), b.data(), kN), mismatch)
          << "isa=" << simd::isa_name(isa) << " planted=" << mismatch;
    }
  }
}

TEST(SimdCompare, LengthEdgeValues) {
  IsaGuard guard;
  std::vector<std::uint8_t> a(64, 0xAB), b(64, 0xAB);
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u}) {
      EXPECT_EQ(simd::match_length(a.data(), b.data(), n), n) << simd::isa_name(isa);
    }
  }
}

// Over-read proof for the sanitize job: both operands end flush at the end
// of their heap allocations, with every sub-vector tail length. A comparer
// that loads one byte past n faults under ASan here.
TEST(SimdCompare, NoOverReadAtAllocationEdge) {
  IsaGuard guard;
  rng::Xoshiro256 rng(7);
  for (std::size_t n = 0; n <= 67; ++n) {
    // Fresh minimal allocations each round so there is no slack after them.
    std::vector<std::uint8_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] = rng.next_byte();
    for (const auto isa : available_isas()) {
      simd::force_isa(isa);
      EXPECT_EQ(simd::match_length(a.data(), b.data(), n), n) << simd::isa_name(isa);
    }
  }
  // Same, with the mismatch on the very last in-bounds byte.
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<std::uint8_t> a(n, 0x11), b(n, 0x11);
    b[n - 1] ^= 0xFF;
    for (const auto isa : available_isas()) {
      simd::force_isa(isa);
      EXPECT_EQ(simd::match_length(a.data(), b.data(), n), n - 1) << simd::isa_name(isa);
    }
  }
}

// ---------------------------------------------------------------------------
// Backend equivalence: every backend, under greedy (level 1) and lazy
// (level 9) parsing, round-trips byte-identically through the reference
// decoder AND the cycle-accurate hw decompressor, on every workload corpus.
// ---------------------------------------------------------------------------

constexpr MatchFinderKind kAllKinds[] = {MatchFinderKind::kHashChain,
                                         MatchFinderKind::kSuffixArray,
                                         MatchFinderKind::kGreedy};

constexpr int kParsingLevels[] = {1, 9};  // greedy, lazy

TEST(BackendEquivalence, RoundTripsOnAllCorpora) {
  hw::DecompressorConfig dc;
  dc.window_bits = MatchParams::speed_optimized().window_bits;
  for (const int level : kParsingLevels) {
    for (const auto kind : kAllKinds) {
      MatchParams params = MatchParams::speed_optimized().with_level(level);
      params.finder = kind;
      MatchFinderEncoder enc(params);
      for (const auto& name : wl::corpus_names()) {
        SCOPED_TRACE(std::string(finder_name(kind)) + " level " + std::to_string(level) +
                     " on " + name);
        const auto data = wl::make_corpus(name, 32 * 1024, 1234);
        const auto tokens = enc.encode(data);

        // Reference decoder, with the window bound enforced.
        ASSERT_EQ(decode_tokens(tokens, params.window_size()), data);

        // Cycle-accurate hw decompressor.
        hw::Decompressor dec(dc);
        ASSERT_EQ(dec.decompress(tokens).data, data);
      }
    }
  }
}

TEST(BackendEquivalence, LazyParsingImprovesEveryChainedBackend) {
  // Lazy parsing lives in the encoder, so every backend gets it: on text it
  // must code smaller than greedy parsing for the backends that search more
  // than one candidate. (Not necessarily in fewer tokens: it trades a match
  // for a literal plus a longer match.)
  const auto data = wl::make_corpus("wiki", 64 * 1024, 8);
  for (const auto kind : {MatchFinderKind::kHashChain, MatchFinderKind::kSuffixArray}) {
    MatchParams greedy = MatchParams::speed_optimized().with_level(1);
    greedy.finder = kind;
    MatchParams lazy = greedy.with_level(9);
    MatchFinderEncoder g(greedy);
    MatchFinderEncoder l(lazy);
    EXPECT_LT(deflate::fixed_block_bits(l.encode(data)),
              deflate::fixed_block_bits(g.encode(data)))
        << finder_name(kind);
  }
}

TEST(BackendEquivalence, AdversarialFixtures) {
  // The window-boundary / min-match edge cases of the satellite sweep:
  // inputs shorter than a match, max-length matches ending exactly at
  // end-of-input, periodic data straddling the window size, and a match
  // whose source is the full max_distance away.
  MatchParams base = MatchParams::speed_optimized();
  const std::uint32_t w = base.window_size();
  std::vector<std::vector<std::uint8_t>> fixtures;
  fixtures.push_back({});
  fixtures.push_back({0x41});
  fixtures.push_back({0x41, 0x42});
  fixtures.push_back({0x41, 0x41, 0x41});
  fixtures.push_back(std::vector<std::uint8_t>(kMaxMatch + 3, 0x55));  // max-len match at EOI
  fixtures.push_back(std::vector<std::uint8_t>(3 * w + 7, 0x00));      // runs past the window
  {
    // Period exactly window_size: the only usable sources sit max_distance
    // or further — the distance filter must clip, never emit unreachable.
    std::vector<std::uint8_t> periodic(2 * w + 64);
    for (std::size_t i = 0; i < periodic.size(); ++i)
      periodic[i] = static_cast<std::uint8_t>((i % w) * 31);
    fixtures.push_back(std::move(periodic));
  }
  {
    rng::Xoshiro256 rng(77);
    std::vector<std::uint8_t> noisy(2 * w);
    for (auto& b : noisy) b = rng.next_byte();
    std::memcpy(noisy.data() + w + 100, noisy.data() + 10, 200);  // long far match
    fixtures.push_back(std::move(noisy));
  }

  for (const int level : kParsingLevels) {
    for (const auto kind : kAllKinds) {
      MatchParams params = base.with_level(level);
      params.finder = kind;
      MatchFinderEncoder enc(params);
      for (std::size_t i = 0; i < fixtures.size(); ++i) {
        SCOPED_TRACE(std::string(finder_name(kind)) + " level " + std::to_string(level) +
                     " fixture " + std::to_string(i));
        const auto& data = fixtures[i];
        const auto tokens = enc.encode(data);
        for (const auto& t : tokens) {
          if (t.is_literal()) continue;
          EXPECT_GE(t.length(), kMinMatch);
          EXPECT_LE(t.length(), kMaxMatch);
          EXPECT_LE(t.distance(), params.max_distance());
        }
        EXPECT_EQ(decode_tokens(tokens, params.window_size()), data);
      }
    }
  }
}

TEST(BackendEquivalence, FindersReportStats) {
  const auto data = wl::make_corpus("wiki", 16 * 1024, 5);
  for (const auto kind : kAllKinds) {
    MatchParams params = MatchParams::speed_optimized();
    params.finder = kind;
    MatchFinderEncoder enc(params);
    EXPECT_EQ(enc.kind(), kind);
    (void)enc.encode(data);
    EXPECT_EQ(enc.finder_stats().seeds, 1u) << finder_name(kind);
    EXPECT_GT(enc.finder_stats().probes + enc.finder_stats().compare_bytes, 0u)
        << finder_name(kind);
  }
}

TEST(MatchFinderKindNames, RoundTrip) {
  for (const auto kind : kAllKinds) {
    MatchFinderKind parsed{};
    ASSERT_TRUE(parse_finder_name(finder_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  MatchFinderKind unused{};
  EXPECT_FALSE(parse_finder_name("bogus", unused));
}

}  // namespace
}  // namespace lzss::core
