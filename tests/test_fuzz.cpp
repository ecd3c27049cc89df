// Deterministic fuzzing: malformed inputs must fail loudly (throw), never
// crash or return garbage silently; random inputs must round-trip under
// randomized configurations.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "hw/compressor.hpp"
#include "lzss/decoder.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/raw_container.hpp"
#include "lzss/mf_encoder.hpp"
#include "server/frame.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

TEST(FuzzInflate, BitFlipsNeverCrash) {
  const auto data = wl::make_corpus("wiki", 8 * 1024);
  const auto z = deflate::zlib_compress(data, core::MatchParams::speed_optimized());
  rng::Xoshiro256 rng(2024);
  int intact = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = z;
    const std::size_t byte = rng.next_below(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      const auto out = deflate::zlib_decompress(corrupted);
      // Extremely unlikely but possible for flips in "don't care" padding;
      // in that case the output must still be the original (Adler held).
      EXPECT_EQ(out, data);
      ++intact;
    } catch (const deflate::InflateError&) {
      // expected
    } catch (const std::out_of_range&) {
      // BitReader EOF on truncation-like corruption: also a clean failure
    }
  }
  EXPECT_LT(intact, 10);
}

TEST(FuzzInflate, InjectedBitCorruptionFailsTyped) {
  // Same property as BitFlipsNeverCrash, but the flips come from the
  // compiled-in fault point inside zlib_decompress itself — the path the
  // chaos suite drives through the whole service stack.
  const auto data = wl::make_corpus("mixed", 8 * 1024);
  const auto z = deflate::zlib_compress(data, core::MatchParams::speed_optimized());

  int intact = 0, corrupted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    fault::Spec spec;
    spec.action = fault::Action::kCorrupt;
    spec.seed = static_cast<std::uint64_t>(trial) + 1;
    const fault::ScopedFault guard("deflate.inflate.corrupt", spec);
    try {
      const auto out = deflate::zlib_decompress(z);
      // A flip can land in don't-care padding; then the checksums held and
      // the output must be byte-identical.
      EXPECT_EQ(out, data);
      ++intact;
    } catch (const deflate::InflateError&) {
      ++corrupted;
    } catch (const std::out_of_range&) {
      ++corrupted;  // BitReader EOF: also a clean, typed failure
    }
    EXPECT_EQ(fault::triggers("deflate.inflate.corrupt"), 1u);
  }
  EXPECT_EQ(intact + corrupted, 200);
  EXPECT_GT(corrupted, 150);  // flips overwhelmingly get caught
}

TEST(FuzzInflate, ExpansionCapBoundsOutput) {
  // Compression-bomb guard: a caller cap far below the decompressed size
  // must fail with the typed bomb error before the memory is committed.
  const std::vector<std::uint8_t> zeros(256 * 1024, 0);
  const auto z = deflate::zlib_compress(zeros, core::MatchParams::speed_optimized());
  ASSERT_LT(z.size(), 8 * 1024u);  // genuinely high-ratio input

  EXPECT_THROW((void)deflate::zlib_decompress(z, /*max_output=*/1024),
               deflate::InflateBombError);
  // InflateBombError is still an InflateError, so existing handlers work.
  EXPECT_THROW((void)deflate::zlib_decompress(z, 1024), deflate::InflateError);
  // With an adequate cap (or none) the same stream inflates fine.
  EXPECT_EQ(deflate::zlib_decompress(z, zeros.size()).size(), zeros.size());
  EXPECT_EQ(deflate::zlib_decompress(z).size(), zeros.size());
}

TEST(FuzzInflate, StructuralExpansionBoundHoldsWithoutCallerCap) {
  // Even with no caller cap, output is bounded by max_inflate_expansion of
  // the *input* size, so a hostile stream can never force unbounded
  // allocation — and the bound is loose enough that every legal stream
  // (even the densest all-matches one) stays inside it.
  const std::size_t bound = deflate::max_inflate_expansion(64);
  EXPECT_LT(bound, std::size_t{1} << 30);  // sane: ~64KB + 64*1040

  // A fixed-Huffman stream of back-to-back maximal matches is the densest
  // legal Deflate; inflating one block of it must stay under the bound.
  const std::vector<std::uint8_t> zeros(128 * 1024, 0);
  const auto z = deflate::zlib_compress(zeros, core::MatchParams::speed_optimized());
  const auto body = std::span(z).subspan(2, z.size() - 6);
  EXPECT_LE(deflate::inflate_raw(body).size(), deflate::max_inflate_expansion(body.size()));
}

TEST(FuzzInflate, TruncationsNeverCrash) {
  const auto data = wl::make_corpus("x2e", 8 * 1024);
  const auto z = deflate::zlib_compress(data, core::MatchParams::speed_optimized());
  for (std::size_t len = 0; len < z.size(); len += 7) {
    EXPECT_THROW((void)deflate::zlib_decompress(std::span(z).subspan(0, len)),
                 std::exception)
        << len;
  }
}

TEST(FuzzInflate, RandomGarbageNeverCrashes) {
  rng::Xoshiro256 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(2048));
    for (auto& b : junk) b = rng.next_byte();
    try {
      (void)deflate::zlib_decompress(junk);
    } catch (const std::exception&) {
      // any typed exception is fine; crashes/UB are what we are hunting
    }
  }
  SUCCEED();
}

TEST(FuzzRawContainer, HeaderFuzzNeverCrashes) {
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  const auto data = wl::make_corpus("wiki", 4096);
  const auto tokens = enc.encode(data);
  const auto c = core::raw_container_pack(tokens, 12, data.size());
  rng::Xoshiro256 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = c;
    corrupted[rng.next_below(21)] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const auto out = core::raw_container_unpack(corrupted);
      EXPECT_EQ(out, data);  // flip may hit a redundant header bit pattern
    } catch (const std::exception&) {
    }
  }
}

TEST(FuzzDecoder, RandomTokenStreamsAreValidatedNotTrusted) {
  rng::Xoshiro256 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<core::Token> tokens;
    const std::size_t n = 1 + rng.next_below(64);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_below(2) == 0) {
        tokens.push_back(core::Token::literal(rng.next_byte()));
      } else {
        tokens.push_back(core::Token::match(
            1 + static_cast<std::uint32_t>(rng.next_below(1000)),
            core::kMinMatch + static_cast<std::uint32_t>(rng.next_below(256))));
      }
    }
    try {
      const auto out = core::decode_tokens(tokens, 4096);
      // If it decoded, every match must have been backed by history.
      std::size_t produced = 0;
      for (const auto& t : tokens) {
        if (!t.is_literal()) {
          EXPECT_LE(t.distance(), produced);
        }
        produced += t.is_literal() ? 1 : t.length();
      }
      EXPECT_EQ(out.size(), produced);
    } catch (const core::DecodeError&) {
    }
  }
}

TEST(FuzzServerFrame, MutatedFramesNeverCrashTheParser) {
  // Random single/multi-byte mutations of a valid request frame: the parser
  // must either reject with a typed error, wait for more bytes, or — when
  // the mutation misses every validated field — round-trip the frame.
  rng::Xoshiro256 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    server::RequestFrame f;
    f.id = rng.next();
    f.opcode = static_cast<server::Opcode>(rng.next_below(4));
    f.flags = static_cast<std::uint16_t>(rng.next());
    f.payload.resize(rng.next_below(256));
    for (auto& b : f.payload) b = rng.next_byte();
    auto wire = server::encode_request(f);

    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m)
      wire[rng.next_below(wire.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));

    server::RequestParser parser;
    parser.feed(wire);
    for (int spins = 0; spins < 8; ++spins) {
      const auto out = parser.next();
      if (!out.has_value()) break;
      // Anything that parsed must respect the protocol's own invariants.
      EXPECT_LE(out->payload.size(), server::kMaxPayload);
      EXPECT_LE(static_cast<unsigned>(out->opcode),
                static_cast<unsigned>(server::Opcode::kCompressBlocked));
    }
    SUCCEED();
  }
}

TEST(FuzzServerFrame, MutationsOffTheWireStillRoundTripWhenAccepted) {
  // Mutate only payload bytes: header validation cannot fire, so the frame
  // must parse and the (mutated) payload must come back verbatim.
  rng::Xoshiro256 rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    server::RequestFrame f;
    f.id = trial;
    f.opcode = server::Opcode::kCompress;
    f.payload.resize(16 + rng.next_below(128));
    for (auto& b : f.payload) b = rng.next_byte();
    auto wire = server::encode_request(f);
    wire[server::kRequestHeaderSize + rng.next_below(f.payload.size())] ^= 0xFF;

    server::RequestParser parser;
    ASSERT_TRUE(parser.feed(wire));
    const auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->id, f.id);
    EXPECT_EQ(out->payload.size(), f.payload.size());
  }
}

TEST(FuzzServerFrame, RandomGarbageAndRandomChunkingNeverCrash) {
  rng::Xoshiro256 rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(4096));
    for (auto& b : junk) b = rng.next_byte();
    server::RequestParser rp;
    server::ResponseParser sp;
    std::size_t pos = 0;
    while (pos < junk.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng.next_below(97), junk.size() - pos);
      const auto chunk = std::span(junk).subspan(pos, n);
      rp.feed(chunk);
      sp.feed(chunk);
      while (rp.next().has_value()) {
      }
      while (sp.next().has_value()) {
      }
      pos += n;
    }
  }
  SUCCEED();
}

container::BlockCodecConfig fuzz_container_config() {
  container::BlockCodecConfig cfg;
  cfg.block_bytes = 8 * 1024;
  return cfg;
}

TEST(FuzzContainer, BitFlipsYieldTypedErrorsOrIdenticalOutput) {
  // Random single-bit flips anywhere in an LZBC container: decode must
  // either raise a typed error or — when the flip lands in Deflate padding
  // the per-block CRC doesn't see — return the exact original bytes. No
  // crash, no OOM, no silently wrong output.
  const auto data = wl::make_corpus("wiki", 40 * 1024);
  const auto packed = container::block_compress(data, fuzz_container_config());
  rng::Xoshiro256 rng(2025);
  int intact = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto corrupted = packed;
    const std::size_t byte = rng.next_below(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      const auto out = container::block_decompress(corrupted, data.size());
      EXPECT_EQ(out, data);
      ++intact;
    } catch (const container::ContainerError&) {
    } catch (const deflate::InflateError&) {
    } catch (const std::out_of_range&) {
      // BitReader EOF inside a block stream: still a clean, typed failure
    }
  }
  EXPECT_LT(intact, 40);
}

TEST(FuzzContainer, TruncationsAlwaysFailTyped) {
  const auto data = wl::make_corpus("x2e", 32 * 1024);
  const auto packed = container::block_compress(data, fuzz_container_config());
  for (std::size_t len = 0; len < packed.size(); len += 13) {
    EXPECT_THROW((void)container::block_decompress(
                     std::span(packed).first(len), data.size()),
                 std::exception)
        << len;
  }
}

TEST(FuzzContainer, CraftedHostileHeadersNeverOverAllocate) {
  // Length-overflow and garbage headers behind a valid magic: parse must
  // reject before allocating anything driven by the unchecked fields (the
  // block table is bounded by ceil(raw_total / block_size) with raw_total
  // capped by the caller).
  rng::Xoshiro256 rng(47);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(container::kSuperframeHeaderSize + rng.next_below(64));
    for (auto& b : junk) b = rng.next_byte();
    for (std::size_t i = 0; i < 4; ++i) junk[i] = container::kMagic[i];
    if (rng.next_below(2) == 0) junk[4] = container::kFormatVersion;
    try {
      (void)container::parse(junk, 4096);
    } catch (const container::ContainerError&) {
      // the only acceptable failure mode
    }
  }

  // The explicit worst cases: u32-max block_count, u64-huge raw_total, and a
  // comp_len that promises far more payload than the buffer holds.
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  const auto packed = container::block_compress(data, fuzz_container_config());
  auto mutate32 = [&](std::size_t offset) {
    auto copy = packed;
    for (std::size_t i = 0; i < 4; ++i) copy[offset + i] = 0xFF;
    return copy;
  };
  EXPECT_THROW((void)container::parse(mutate32(8), data.size()),
               container::ContainerError);  // block_size
  EXPECT_THROW((void)container::parse(mutate32(12), data.size()),
               container::ContainerError);  // block_count
  EXPECT_THROW((void)container::parse(mutate32(16), data.size()),
               container::ContainerError);  // raw_total low word
  EXPECT_THROW((void)container::parse(mutate32(container::kSuperframeHeaderSize), data.size()),
               container::ContainerError);  // first block comp_len
}

TEST(FuzzContainer, MethodByteGarbageAndCrcFlipsFailTyped) {
  const auto data = wl::make_corpus("mixed", 24 * 1024);
  const auto packed = container::block_compress(data, fuzz_container_config());
  // Every non-{0,1} method byte value on the first block record.
  for (unsigned m = 2; m < 256; m += 17) {
    auto copy = packed;
    copy[container::kSuperframeHeaderSize + 8] = static_cast<std::uint8_t>(m);
    try {
      (void)container::block_decompress(copy, data.size());
      FAIL() << "method byte " << m << " accepted";
    } catch (const container::ContainerError& e) {
      EXPECT_EQ(e.kind(), container::ContainerError::Kind::kBadMethod);
    }
  }
  // A CRC flip decodes cleanly at the stream level but must be pinned by the
  // per-block checksum of the raw bytes.
  auto copy = packed;
  copy[container::kSuperframeHeaderSize + 12] ^= 0x80;
  try {
    (void)container::block_decompress(copy, data.size());
    FAIL() << "flipped CRC accepted";
  } catch (const container::ContainerError& e) {
    EXPECT_EQ(e.kind(), container::ContainerError::Kind::kCrcMismatch);
  }
}

TEST(FuzzRoundtrip, RandomConfigsRandomData) {
  rng::Xoshiro256 rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    hw::HwConfig cfg = hw::HwConfig::speed_optimized();
    cfg.dict_bits = 10 + static_cast<unsigned>(rng.next_below(7));
    cfg.hash.bits = 8 + static_cast<unsigned>(rng.next_below(9));
    cfg.generation_bits = static_cast<unsigned>(rng.next_below(5));
    cfg.bus_width_bytes = 1u << rng.next_below(3);
    cfg.hash_prefetch = rng.next_below(2) == 0;
    cfg.max_chain = 1 + static_cast<std::uint32_t>(rng.next_below(64));
    cfg.nice_length = 4 + static_cast<std::uint32_t>(rng.next_below(250));
    cfg.max_insert = 3 + static_cast<std::uint32_t>(rng.next_below(32));
    if (cfg.position_bits() > 24) cfg.generation_bits = 0;

    const char* corpora[] = {"wiki", "x2e", "mixed", "random"};
    const auto data =
        wl::make_corpus(corpora[rng.next_below(4)], 8 * 1024 + rng.next_below(40000), trial);

    hw::Compressor comp(cfg);
    const auto res = comp.compress(data);
    ASSERT_TRUE(core::tokens_reproduce(res.tokens, data)) << cfg.describe();
    for (const auto& t : res.tokens) {
      if (!t.is_literal()) {
        ASSERT_LE(t.distance(), cfg.max_distance()) << cfg.describe();
      }
    }
  }
}

// Backend equivalence under fuzzed parameters: every MatchFinder backend
// must produce a decodable stream that reproduces the input byte-for-byte,
// whatever the window/hash/effort knobs and whichever corpus.
TEST(FuzzRoundtrip, MatchFinderBackendsRandomParams) {
  rng::Xoshiro256 rng(29);
  constexpr core::MatchFinderKind kKinds[] = {core::MatchFinderKind::kHashChain,
                                              core::MatchFinderKind::kSuffixArray,
                                              core::MatchFinderKind::kGreedy};
  const auto names = wl::corpus_names();
  for (int trial = 0; trial < 10; ++trial) {
    core::MatchParams p;
    p.window_bits = 9 + static_cast<unsigned>(rng.next_below(7));
    p.hash.bits = 8 + static_cast<unsigned>(rng.next_below(9));
    p.max_chain = 1 + static_cast<std::uint32_t>(rng.next_below(128));
    p.nice_length = 4 + static_cast<std::uint32_t>(rng.next_below(254));
    p.good_length = 4 + static_cast<std::uint32_t>(rng.next_below(32));
    p.max_lazy = 3 + static_cast<std::uint32_t>(rng.next_below(64));

    const auto& name = names[rng.next_below(names.size())];
    const auto data = wl::make_corpus(name, 2 * 1024 + rng.next_below(20000), trial + 500);
    for (const auto kind : kKinds) {
      p.finder = kind;
      core::MatchFinderEncoder enc(p);
      const auto tokens = enc.encode(data);
      for (const auto& t : tokens) {
        if (!t.is_literal()) {
          ASSERT_LE(t.distance(), p.max_distance())
              << p.describe() << " corpus=" << name;
        }
      }
      ASSERT_TRUE(core::tokens_reproduce(tokens, data, p.window_size()))
          << p.describe() << " corpus=" << name;
    }
  }
}

TEST(FuzzRoundtrip, SwEncoderRandomParams) {
  rng::Xoshiro256 rng(23);
  for (int trial = 0; trial < 12; ++trial) {
    core::MatchParams p;
    p.window_bits = 9 + static_cast<unsigned>(rng.next_below(7));
    p.hash.bits = 8 + static_cast<unsigned>(rng.next_below(9));
    p.max_chain = 1 + static_cast<std::uint32_t>(rng.next_below(512));
    p.nice_length = 4 + static_cast<std::uint32_t>(rng.next_below(254));
    p.good_length = 4 + static_cast<std::uint32_t>(rng.next_below(32));
    p.max_lazy = 3 + static_cast<std::uint32_t>(rng.next_below(64));
    p.strategy = rng.next_below(2) == 0 ? core::Strategy::kFast : core::Strategy::kSlow;

    const auto data = wl::make_corpus("mixed", 4 * 1024 + rng.next_below(30000), trial + 100);
    core::MatchFinderEncoder enc(p);
    const auto tokens = enc.encode(data);
    ASSERT_TRUE(core::tokens_reproduce(tokens, data, p.window_size())) << p.describe();
  }
}

}  // namespace
}  // namespace lzss
