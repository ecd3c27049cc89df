#include "swmodel/cache_sim.hpp"

#include <gtest/gtest.h>

#include <string>

#include "swmodel/ppc440_model.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss::swm {
namespace {

TEST(CacheSim, GeometryDefaults) {
  CacheGeometry g;
  EXPECT_EQ(g.num_sets(), 16u);  // 32 KB / (32 B x 64 ways)
}

TEST(CacheSim, RejectsBadGeometry) {
  CacheGeometry g;
  g.line_bytes = 48;  // not a power of two
  EXPECT_THROW(CacheSim{g}, std::invalid_argument);
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c;
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x101F));  // same 32-byte line
  EXPECT_FALSE(c.access(0x1020)); // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheSim, LruEvictionOrder) {
  CacheGeometry g;
  g.size_bytes = 4 * 32;  // 4 lines total
  g.line_bytes = 32;
  g.ways = 4;             // fully associative, one set
  CacheSim c(g);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(c.access(i * 32));
  EXPECT_TRUE(c.access(0));          // touch line 0 -> MRU
  EXPECT_FALSE(c.access(4 * 32));    // evicts line 1 (the LRU)
  EXPECT_TRUE(c.access(0));          // line 0 survived
  EXPECT_FALSE(c.access(1 * 32));    // line 1 is gone
}

TEST(CacheSim, SetIndexingSeparatesConflicts) {
  CacheGeometry g;
  g.size_bytes = 2 * 2 * 32;  // 2 sets x 2 ways
  g.line_bytes = 32;
  g.ways = 2;
  CacheSim c(g);
  // Addresses mapping to set 0: line numbers 0, 2, 4...
  EXPECT_FALSE(c.access(0 * 32));
  EXPECT_FALSE(c.access(2 * 32));
  EXPECT_FALSE(c.access(4 * 32));  // evicts line 0 in set 0
  EXPECT_FALSE(c.access(1 * 32));  // set 1 is untouched by the above
  EXPECT_TRUE(c.access(2 * 32));
}

TEST(CacheSim, ResetClears) {
  CacheSim c;
  (void)c.access(0);
  c.reset();
  EXPECT_EQ(c.hits() + c.misses(), 0u);
  EXPECT_FALSE(c.access(0));
}

TEST(CacheSim, SequentialStreamHitsWithinLines) {
  CacheSim c;
  for (std::uint64_t a = 0; a < 32 * 100; ++a) (void)c.access(a);
  EXPECT_EQ(c.misses(), 100u);  // one per line
  EXPECT_NEAR(c.miss_rate(), 1.0 / 32.0, 1e-6);
}

TEST(CacheTimedEncode, AgreesWithFlatModelOnText) {
  const std::size_t n = 512 * 1024;
  const auto data = wl::make_corpus("wiki", n);
  const auto traced = cache_timed_encode(data, 12, 15, 1);

  core::MatchParams p = core::MatchParams::speed_optimized();
  core::MatchFinderEncoder enc(p);
  const auto tokens = enc.encode(data);
  const auto flat = price(enc.finder_stats(), tokens.size(), n);

  // Two independently built models of the same machine must land in the
  // same band (the flat model was calibrated to the paper's 2.5-3.3 MB/s).
  EXPECT_GT(traced.mb_per_s, 2.0);
  EXPECT_LT(traced.mb_per_s, 4.0);
  EXPECT_LT(std::abs(traced.mb_per_s - flat.mb_per_s) / flat.mb_per_s, 0.5);
}

TEST(CacheTimedEncode, BiggerHashTableMissesMore) {
  const auto data = wl::make_corpus("wiki", 256 * 1024);
  const auto small = cache_timed_encode(data, 12, 9, 1);
  const auto large = cache_timed_encode(data, 12, 17, 1);
  // A 2^9 x 2B head table fits the 32 KB cache outright; 2^17 x 2B cannot.
  EXPECT_LT(small.trace.miss_rate, large.trace.miss_rate);
}

TEST(CacheTimedEncode, DeeperChainsCostMoreCycles) {
  const auto data = wl::make_corpus("wiki", 256 * 1024);
  const auto l1 = cache_timed_encode(data, 12, 15, 1);
  const auto l9 = cache_timed_encode(data, 12, 15, 9);
  EXPECT_GT(l9.cycles, l1.cycles);
  EXPECT_LT(l9.mb_per_s, l1.mb_per_s);
}

TEST(CacheTimedEncode, TraceCountsConsistent) {
  const auto data = wl::make_corpus("x2e", 128 * 1024);
  const auto r = cache_timed_encode(data, 12, 15, 1);
  EXPECT_EQ(r.trace.hits + r.trace.misses, r.trace.accesses);
  EXPECT_GT(r.trace.accesses, data.size());  // at least one reference per byte
}

TEST(CacheTimedEncode, TraceIsFrozen) {
  // The PPC440 reference stream of 64 KiB (seed 1) at zlib levels 1 and 9,
  // 4 KB window, 15-bit hash: pins the order in which the encoder touches
  // the window, head and prev tables, greedy and lazy.
  struct Pinned {
    const char* corpus;
    int level;
    std::uint64_t accesses, hits, misses;
  };
  constexpr Pinned kPinned[] = {
    {"wiki", 1, 200553, 193353, 7200},
    {"wiki", 9, 681933, 673584, 8349},
    {"x2e", 1, 232610, 214663, 17947},
    {"x2e", 9, 1400334, 1379174, 21160},
  };
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(std::string(p.corpus) + " level " + std::to_string(p.level));
    const auto data = wl::make_corpus(p.corpus, 64 * 1024);
    const auto r = cache_timed_encode(data, 12, 15, p.level);
    EXPECT_EQ(r.trace.accesses, p.accesses);
    EXPECT_EQ(r.trace.hits, p.hits);
    EXPECT_EQ(r.trace.misses, p.misses);
  }
}

TEST(AccessObserver, DisabledByDefaultAndDetachable) {
  // Encoding without an observer must work and produce identical tokens to
  // an observed run (the trace is a pure tap).
  struct Counter final : core::AccessObserver {
    std::uint64_t n = 0;
    void on_access(core::MemRegion, std::uint64_t) override { ++n; }
  };
  const auto data = wl::make_corpus("wiki", 32 * 1024);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto plain = enc.encode(data);
  Counter counter;
  enc.set_access_observer(&counter);
  const auto observed = enc.encode(data);
  EXPECT_EQ(plain, observed);
  EXPECT_GT(counter.n, 0u);
  // Detached again, the encoder reports nothing more.
  const std::uint64_t seen = counter.n;
  enc.set_access_observer(nullptr);
  EXPECT_EQ(enc.encode(data), plain);
  EXPECT_EQ(counter.n, seen);
}

}  // namespace
}  // namespace lzss::swm
