// Golden regression vectors.
//
// Everything in this repository is deterministic — the workload generators,
// the match finders and the cycle model — so exact output snapshots are
// stable across platforms and catch any unintended behavioural change (a
// different token stream, a one-cycle accounting drift) that the semantic
// tests might tolerate. If a change here is *intended* (e.g. recalibrating
// a workload), regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "container/format.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "hw/compressor.hpp"
#include "logger/archive.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/simd_compare.hpp"
#include "lzss/token.hpp"
#include "obs/metrics.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

struct Golden {
  const char* corpus;
  std::uint32_t input_crc;
  std::size_t hw_tokens;
  std::uint64_t hw_cycles;
  std::uint32_t hw_deflate_crc;
  std::size_t hw_deflate_size;
  std::uint32_t sw_zlib_crc;
  std::size_t sw_zlib_size;
};

// 64 KiB of each corpus at seed 42, speed-optimized configuration.
constexpr Golden kGolden[] = {
    {"wiki", 0x7C6CCC6A, 19681, 129452, 0xA03ACF79, 38306, 0xE07467BB, 37859},
    {"x2e", 0x6E1ECD65, 29034, 125081, 0xCF835F8D, 39068, 0x40ECCA1A, 39014},
    {"mixed", 0x09E3CF6E, 35065, 81378, 0x45FE4FA9, 37234, 0xB371A343, 37240},
};

// Without this, gtest prints the parameter as its raw bytes, which include
// the address of the corpus literal, so the listed test names would change
// with every build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.corpus; }

class GoldenVectors : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenVectors, WorkloadGeneratorIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  EXPECT_EQ(checksum::crc32(data), g.input_crc);
}

TEST_P(GoldenVectors, HardwareModelIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  const auto res = comp.compress(data);
  EXPECT_EQ(res.tokens.size(), g.hw_tokens);
  EXPECT_EQ(res.stats.total_cycles, g.hw_cycles);
  const auto stream = deflate::deflate_fixed(res.tokens);
  EXPECT_EQ(stream.size(), g.hw_deflate_size);
  EXPECT_EQ(checksum::crc32(stream), g.hw_deflate_crc);
}

TEST_P(GoldenVectors, SoftwarePathIsFrozen) {
  const Golden& g = GetParam();
  const auto data = wl::make_corpus(g.corpus, 64 * 1024, 42);
  const auto z = deflate::zlib_compress(data, core::MatchParams::speed_optimized());
  EXPECT_EQ(z.size(), g.sw_zlib_size);
  EXPECT_EQ(checksum::crc32(z), g.sw_zlib_crc);
}

INSTANTIATE_TEST_SUITE_P(Snapshots, GoldenVectors, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.corpus);
                         });


// The software encoder's token stream and operation census (the inputs of
// the PPC440 model in swmodel/ppc440_model.hpp) for 64 KiB of every corpus
// at seed 1, 4 KB window, 15-bit hash and every zlib level: levels 1-3 run
// the greedy loop, 4-9 the lazy one. token_crc is the CRC-32 of the raw D/L
// packing (core::pack_raw_tokens).
struct EncoderGolden {
  const char* corpus;
  int level;
  std::uint32_t token_crc;
  std::size_t tokens;
  std::uint64_t insertions;
  std::uint64_t probes;
  std::uint64_t compare_bytes;
};

constexpr EncoderGolden kEncoderGolden[] = {
    {"wiki", 1, 0x78AA6937, 18979, 35911, 31358, 150623},
    {"wiki", 2, 0x7B4AE202, 18016, 41817, 45352, 214866},
    {"wiki", 3, 0xD474ACB3, 17311, 47083, 62994, 292697},
    {"wiki", 4, 0xD7DEDC5A, 16376, 65534, 71242, 340730},
    {"wiki", 5, 0x2676F993, 16622, 65534, 149399, 717597},
    {"wiki", 6, 0xA291DFA1, 16616, 65534, 160930, 783646},
    {"wiki", 7, 0xA291DFA1, 16616, 65534, 161777, 789152},
    {"wiki", 8, 0xA291DFA1, 16616, 65534, 161777, 789152},
    {"wiki", 9, 0xA291DFA1, 16616, 65534, 161777, 789152},
    {"x2e", 1, 0xD7CE596A, 28431, 37965, 40221, 118177},
    {"x2e", 2, 0x2D139AC3, 28255, 39448, 68462, 260406},
    {"x2e", 3, 0xC52D0EC8, 28092, 40249, 120012, 598761},
    {"x2e", 4, 0x6B8AA7DA, 27357, 65534, 97715, 440447},
    {"x2e", 5, 0x5B0AD088, 27292, 65534, 182277, 1012275},
    {"x2e", 6, 0xB8A4B0D3, 27255, 65534, 318019, 1820987},
    {"x2e", 7, 0x92BF2D3F, 27255, 65534, 378254, 2219765},
    {"x2e", 8, 0x9782C9BC, 27256, 65534, 401244, 2378030},
    {"x2e", 9, 0x9782C9BC, 27256, 65534, 401244, 2378030},
    {"netlog", 1, 0xA6890911, 23975, 25360, 4634, 51007},
    {"netlog", 2, 0x2D53C167, 23854, 25589, 7051, 65228},
    {"netlog", 3, 0x2395B5C2, 24090, 25656, 11673, 88520},
    {"netlog", 4, 0x8FA72DBA, 21455, 65534, 12150, 85117},
    {"netlog", 5, 0x52317D7D, 21428, 65534, 21489, 128805},
    {"netlog", 6, 0x5601E5E9, 21393, 65534, 28482, 165343},
    {"netlog", 7, 0x5601E5E9, 21393, 65534, 29909, 182456},
    {"netlog", 8, 0x08EAED04, 21382, 65534, 31210, 229627},
    {"netlog", 9, 0x08EAED04, 21382, 65534, 31951, 295308},
    {"bitstream", 1, 0x688FE552, 3294, 4059, 1941, 67243},
    {"bitstream", 2, 0x8AC224E3, 3219, 3955, 2424, 72527},
    {"bitstream", 3, 0x0F64A48A, 3179, 3882, 2746, 78769},
    {"bitstream", 4, 0xC43F48D4, 3226, 65534, 5629, 98477},
    {"bitstream", 5, 0xD6304E6F, 3153, 65534, 9898, 158435},
    {"bitstream", 6, 0x84A812C8, 3124, 65534, 22408, 981158},
    {"bitstream", 7, 0x84A812C8, 3124, 65534, 30243, 1266069},
    {"bitstream", 8, 0xA0F46752, 3081, 65534, 109720, 11455453},
    {"bitstream", 9, 0xA0F46752, 3081, 65534, 313529, 36168611},
    {"random", 1, 0x6C223FE0, 65508, 65534, 8100, 8252},
    {"random", 2, 0x6C223FE0, 65508, 65534, 8100, 8252},
    {"random", 3, 0x6C223FE0, 65508, 65534, 8100, 8252},
    {"random", 4, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"random", 5, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"random", 6, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"random", 7, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"random", 8, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"random", 9, 0x6C223FE0, 65508, 65534, 8101, 8253},
    {"zeros", 1, 0x1111C6DA, 256, 256, 255, 65535},
    {"zeros", 2, 0x1111C6DA, 256, 256, 255, 65535},
    {"zeros", 3, 0x1111C6DA, 256, 256, 255, 65535},
    {"zeros", 4, 0xB6564686, 256, 65534, 255, 65535},
    {"zeros", 5, 0xB6564686, 256, 65534, 255, 65535},
    {"zeros", 6, 0xB6564686, 256, 65534, 255, 65535},
    {"zeros", 7, 0xB6564686, 256, 65534, 255, 65535},
    {"zeros", 8, 0xB6564686, 256, 65534, 255, 65535},
    {"zeros", 9, 0xB6564686, 256, 65534, 255, 65535},
    {"periodic64", 1, 0x75EA4A04, 826, 826, 252, 64962},
    {"periodic64", 2, 0x75EA4A04, 826, 826, 252, 64962},
    {"periodic64", 3, 0x75EA4A04, 826, 826, 252, 64962},
    {"periodic64", 4, 0x3936BA97, 318, 65534, 254, 65472},
    {"periodic64", 5, 0x3936BA97, 318, 65534, 254, 65472},
    {"periodic64", 6, 0x3936BA97, 318, 65534, 254, 65472},
    {"periodic64", 7, 0x3936BA97, 318, 65534, 254, 65472},
    {"periodic64", 8, 0x3936BA97, 318, 65534, 254, 65472},
    {"periodic64", 9, 0x3936BA97, 318, 65534, 317, 77883},
    {"mixed", 1, 0x53DECF31, 33106, 33108, 2330, 35027},
    {"mixed", 2, 0x53DECF31, 33106, 33108, 2330, 35027},
    {"mixed", 3, 0xE2C64219, 33106, 33108, 2338, 35107},
    {"mixed", 4, 0xFB8F406F, 33116, 65534, 2823, 37393},
    {"mixed", 5, 0x0FF7F970, 33116, 65534, 3460, 45366},
    {"mixed", 6, 0x710C34C5, 33106, 65534, 6230, 138962},
    {"mixed", 7, 0xE99418EA, 33106, 65534, 7851, 178764},
    {"mixed", 8, 0x78C8C9D7, 33105, 65534, 9691, 303048},
    {"mixed", 9, 0x04F725AE, 33105, 65534, 10120, 375530},
    {"ramp", 1, 0x3217383B, 3916, 3916, 240, 61860},
    {"ramp", 2, 0x3217383B, 3916, 3916, 240, 61860},
    {"ramp", 3, 0x3217383B, 3916, 3916, 240, 61860},
    {"ramp", 4, 0x64CE04B8, 510, 65534, 254, 65280},
    {"ramp", 5, 0x64CE04B8, 510, 65534, 269, 65355},
    {"ramp", 6, 0x64CE04B8, 510, 65534, 269, 65355},
    {"ramp", 7, 0x64CE04B8, 510, 65534, 269, 65355},
    {"ramp", 8, 0x64CE04B8, 510, 65534, 269, 65355},
    {"ramp", 9, 0x64CE04B8, 510, 65534, 269, 65355},
};

TEST(EncoderGolden, CoversEveryCorpusAndLevel) {
  EXPECT_EQ(std::size(kEncoderGolden), wl::corpus_names().size() * core::kMaxLevel);
}

void expect_encoder_golden(const EncoderGolden& g) {
  const auto data = wl::make_corpus(g.corpus, 64 * 1024);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized().with_level(g.level));
  const auto tokens = enc.encode(data);
  EXPECT_EQ(checksum::crc32(core::pack_raw_tokens(tokens, 12)), g.token_crc);
  EXPECT_EQ(tokens.size(), g.tokens);
  EXPECT_EQ(enc.finder_stats().insertions, g.insertions);
  EXPECT_EQ(enc.finder_stats().probes, g.probes);
  EXPECT_EQ(enc.finder_stats().compare_bytes, g.compare_bytes);
}

TEST(EncoderGolden, TokensAndCensusAreFrozen) {
  for (const EncoderGolden& g : kEncoderGolden) {
    SCOPED_TRACE(std::string(g.corpus) + " level " + std::to_string(g.level));
    expect_encoder_golden(g);
  }
}

TEST(EncoderGolden, HoldsUnderEveryComparerIsa) {
  // The SIMD comparer only speeds up the byte compare; it must not change a
  // token or a counted compare byte.
  struct IsaGuard {
    ~IsaGuard() { core::simd::force_isa(core::simd::best_isa()); }
  } guard;
  for (int isa = 0; isa <= static_cast<int>(core::simd::best_isa()); ++isa) {
    core::simd::force_isa(static_cast<core::simd::CompareIsa>(isa));
    for (const EncoderGolden& g : kEncoderGolden) {
      SCOPED_TRACE(std::string(core::simd::isa_name(core::simd::active_isa())) + " " +
                   g.corpus + " level " + std::to_string(g.level));
      expect_encoder_golden(g);
    }
  }
}

// Service responses on the two paths that fan one payload out, 512 KiB of
// each corpus at seed 42 and the default service configuration otherwise.
// Striped COMPRESS (payload >= large_threshold) stitches one fixed-Huffman
// block per stripe into a single zlib body; `cycles` is the hw_cycles_total
// the call exports, i.e. the cycle census summed over its stripes. The
// 4 KiB dictionary leaves all 8 stripes in place (test_multi_engine covers
// the stripe >= dictionary clamp).
struct StripedGolden {
  const char* corpus;
  unsigned engines;
  std::uint32_t response_crc;
  std::size_t response_size;
  std::uint64_t cycles;
};

constexpr StripedGolden kStripedGolden[] = {
    {"wiki", 1, 0xEB5F5273, 305588, 1036124},
    {"wiki", 4, 0x17B8786F, 306190, 1035964},
    {"wiki", 8, 0xBEE97760, 307033, 1035674},
    {"x2e", 1, 0xEE10320E, 311323, 992233},
    {"x2e", 4, 0xAB91DF8E, 311515, 991017},
    {"x2e", 8, 0x371E9008, 311761, 989303},
    {"mixed", 1, 0x5857A49C, 283515, 625858},
    {"mixed", 4, 0xB75B26BB, 283522, 625901},
    {"mixed", 8, 0xDFEC77F0, 283541, 626053},
};

// COMPRESS_BLOCKED with 64 KiB blocks: the LZBC container bytes and the
// census summed over its eight blocks.
struct BlockedGolden {
  const char* corpus;
  std::uint32_t response_crc;
  std::size_t response_size;
  std::uint64_t cycles;
};

constexpr BlockedGolden kBlockedGolden[] = {
    {"wiki", 0x3410026A, 307183, 1035674},
    {"x2e", 0x93FDFADA, 311910, 989303},
    {"mixed", 0x6B1CE06B, 283692, 626053},
};

struct ServiceCall {
  server::ResponseFrame response;
  std::uint64_t cycles;
};

ServiceCall call_service(server::ServiceConfig cfg, server::Opcode opcode, const char* corpus) {
  obs::Registry registry;
  cfg.registry = &registry;
  server::Service service(cfg);
  server::LoopbackClient client(service);
  server::RequestFrame req;
  req.id = 1;
  req.opcode = opcode;
  req.payload = wl::make_corpus(corpus, 512 * 1024, 42);
  ServiceCall out{client.call(req), 0};
  out.cycles = registry.counter("hw_cycles_total").value();
  return out;
}

TEST(ServiceGolden, StripedCompressIsFrozen) {
  for (const StripedGolden& g : kStripedGolden) {
    SCOPED_TRACE(std::string(g.corpus) + " x" + std::to_string(g.engines));
    server::ServiceConfig cfg;
    cfg.large_engines = g.engines;
    ASSERT_GE(512u * 1024, cfg.large_threshold);
    const ServiceCall call = call_service(cfg, server::Opcode::kCompress, g.corpus);
    ASSERT_EQ(call.response.status, server::Status::kOk);
    EXPECT_EQ(checksum::crc32(call.response.payload), g.response_crc);
    EXPECT_EQ(call.response.payload.size(), g.response_size);
    EXPECT_EQ(call.cycles, g.cycles);
  }
}

TEST(ServiceGolden, BlockedCompressIsFrozen) {
  for (const BlockedGolden& g : kBlockedGolden) {
    SCOPED_TRACE(g.corpus);
    server::ServiceConfig cfg;
    cfg.block_bytes = 64 * 1024;
    const ServiceCall call = call_service(cfg, server::Opcode::kCompressBlocked, g.corpus);
    ASSERT_EQ(call.response.status, server::Status::kOk);
    EXPECT_EQ(checksum::crc32(call.response.payload), g.response_crc);
    EXPECT_EQ(call.response.payload.size(), g.response_size);
    EXPECT_EQ(call.cycles, g.cycles);
  }
}


// The logger archive over 256 KiB of each corpus at seed 1 and 64 KiB
// blocks (4 blocks), on the software path (dynamic Huffman) and through the
// cycle model (fixed Huffman). payload_crc is the CRC-32 of every block's
// Deflate stream concatenated in block order: it pins the compressed bytes
// independently of the framing around them. archive_size is the LZBC
// container: 24 header bytes plus 16 per block around the payloads.
struct ArchiveGolden {
  const char* corpus;
  bool use_hw_model;
  std::uint32_t payload_crc;
  std::size_t archive_size;
};

constexpr ArchiveGolden kArchiveGolden[] = {
    {"wiki", false, 0x4E55AEA4, 115665}, {"wiki", true, 0xDAD8BFF9, 153594},
    {"x2e", false, 0x497B826D, 137605},  {"x2e", true, 0x2C2693C7, 157919},
    {"mixed", false, 0xFB8EFAEB, 136271}, {"mixed", true, 0xAD6166D0, 143289},
};

// Every block's Deflate stream, in block order.
std::vector<std::uint8_t> archive_payloads(std::span<const std::uint8_t> archive) {
  std::vector<std::uint8_t> out;
  for (const container::BlockView& b : container::parse(archive, 256 * 1024).blocks)
    out.insert(out.end(), b.comp.begin(), b.comp.end());
  return out;
}

TEST(ArchiveGolden, BlockPayloadsAreFrozen) {
  for (const ArchiveGolden& g : kArchiveGolden) {
    SCOPED_TRACE(std::string(g.corpus) + (g.use_hw_model ? " hw" : " sw"));
    logger::ArchiveOptions opt;
    opt.block_bytes = 64 * 1024;
    opt.use_hw_model = g.use_hw_model;
    logger::ArchiveWriter writer(opt);
    writer.append(wl::make_corpus(g.corpus, 256 * 1024));
    const auto archive = writer.finish();
    EXPECT_EQ(checksum::crc32(archive_payloads(archive)), g.payload_crc);
    EXPECT_EQ(archive.size(), g.archive_size);
  }
}

// deflate::zlib_compress with dynamic Huffman on the first n bytes of wiki
// (seed 1): the bytes of one log-store record of that size.
struct DynamicGolden {
  std::size_t bytes;
  std::uint32_t zlib_crc;
  std::size_t zlib_size;
};

constexpr DynamicGolden kDynamicGolden[] = {
    {64, 0xDE6603B3, 68},     {256, 0x80240F7E, 182},        {1024, 0x86A4DE8D, 600},
    {4096, 0xD9334542, 2059}, {64 * 1024, 0x85C89514, 28845},
};

TEST(DynamicBlockGolden, StoreRecordBytesAreFrozen) {
  const auto wiki = wl::make_corpus("wiki", 64 * 1024);
  for (const DynamicGolden& g : kDynamicGolden) {
    SCOPED_TRACE(g.bytes);
    const auto z = deflate::zlib_compress(std::span(wiki).first(g.bytes),
                                          core::MatchParams::speed_optimized(),
                                          deflate::BlockKind::kDynamic);
    EXPECT_EQ(checksum::crc32(z), g.zlib_crc);
    EXPECT_EQ(z.size(), g.zlib_size);
  }
}

}  // namespace
}  // namespace lzss
