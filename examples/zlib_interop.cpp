// zlib/gzip interoperability tour of the software path.
//
// Shows the library as a general-purpose Deflate implementation: compress
// the same data at several levels, with fixed and dynamic Huffman tables,
// into zlib and gzip containers, verifying every stream with the bundled
// inflate. The emitted bytes are stock-zlib compatible; piping one of the
// gzip outputs through `gunzip` reproduces the input.
#include <cstdio>
#include <vector>

#include "deflate/container.hpp"
#include "deflate/inflate.hpp"
#include "lzss/params.hpp"
#include "workloads/corpus.hpp"

int main() {
  using namespace lzss;

  const std::size_t kBytes = 2 * 1024 * 1024;
  std::printf("%-8s %-6s %-8s %12s %9s  %s\n", "corpus", "level", "huffman", "bytes", "ratio",
              "container");

  for (const char* corpus : {"wiki", "x2e"}) {
    const auto data = wl::make_corpus(corpus, kBytes);
    for (const int level : {1, 6, 9}) {
      core::MatchParams p;
      p.window_bits = 15;  // full Deflate window in software
      p = p.with_level(level);
      for (const auto kind : {deflate::BlockKind::kFixed, deflate::BlockKind::kDynamic}) {
        const auto z = deflate::zlib_compress(data, p, kind);
        if (deflate::zlib_decompress(z) != data) {
          std::fprintf(stderr, "zlib round-trip FAILED\n");
          return 1;
        }
        const auto g = deflate::gzip_compress(data, p, kind);
        if (deflate::gzip_decompress(g) != data) {
          std::fprintf(stderr, "gzip round-trip FAILED\n");
          return 1;
        }
        std::printf("%-8s %-6d %-8s %12zu %9.3f  zlib+gzip OK\n", corpus, level,
                    kind == deflate::BlockKind::kFixed ? "fixed" : "dynamic", z.size(),
                    double(data.size()) / double(z.size()));
      }
    }
  }

  std::printf("\nall streams verified with the independent inflate implementation\n");
  std::printf("(they are RFC 1950/1951/1952 conformant — stock zlib/gunzip accepts them)\n");
  return 0;
}
