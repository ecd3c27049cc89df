// lzsszip — file compressor/decompressor built on the library.
//
//   lzsszip [options] <input> <output>
//     -d             decompress (container auto-detected: zlib/gzip/archive)
//     -l <1..9>      compression level (default 1, the hardware's setting)
//     -f zlib|gzip|archive   container format (default zlib); "archive" is
//                    the seekable block-indexed LZSA format
//     -b <kb>        archive block size in KiB (default 256)
//     -w <9..15>     window bits for the software path (default 15)
//     -y fixed|dyn   Huffman table kind (default dyn for sw, fixed for --hw)
//     --hw           compress with the cycle-accurate hardware model
//                    (4 KB window, fixed Huffman) and report cycle stats
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "deflate/container.hpp"
#include "deflate/dynamic_encoder.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "hw/compressor.hpp"
#include "logger/archive.hpp"
#include "lzss/mf_encoder.hpp"

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot create " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

int usage() {
  std::fprintf(stderr,
               "usage: lzsszip [-d] [-l level] [-f zlib|gzip|archive] [-b kb] [-w bits] "
               "[-y fixed|dyn] [--hw] <input> <output>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lzss;
  bool decompress = false, use_hw = false;
  int level = 1;
  unsigned window_bits = 15;
  std::size_t block_kb = 256;
  std::string format = "zlib", huffman;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    if (arg == "-d") {
      decompress = true;
    } else if (arg == "--hw") {
      use_hw = true;
    } else if (arg == "-l") {
      const char* v = next();
      if (v == nullptr) return usage();
      level = std::atoi(v);
    } else if (arg == "-w") {
      const char* v = next();
      if (v == nullptr) return usage();
      window_bits = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "-f") {
      const char* v = next();
      if (v == nullptr) return usage();
      format = v;
    } else if (arg == "-b") {
      const char* v = next();
      if (v == nullptr) return usage();
      block_kb = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "-y") {
      const char* v = next();
      if (v == nullptr) return usage();
      huffman = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2 || level < 1 || level > 9 || block_kb == 0 ||
      (format != "zlib" && format != "gzip" && format != "archive"))
    return usage();

  try {
    const auto input = read_file(files[0]);

    if (decompress) {
      // Auto-detect the container by magic.
      const bool is_gzip = input.size() >= 2 && input[0] == 0x1F && input[1] == 0x8B;
      const bool is_archive =
          input.size() >= 4 && std::memcmp(input.data() + input.size() - 4, "LZSA", 4) == 0;
      std::vector<std::uint8_t> out;
      const char* kind;
      if (is_archive) {
        logger::ArchiveReader reader(input);
        out = reader.read(0, static_cast<std::size_t>(reader.uncompressed_size()));
        kind = "archive";
      } else if (is_gzip) {
        out = deflate::gzip_decompress(input);
        kind = "gzip";
      } else {
        out = deflate::zlib_decompress(input);
        kind = "zlib";
      }
      write_file(files[1], out);
      std::printf("%zu -> %zu bytes (%s)\n", input.size(), out.size(), kind);
      return 0;
    }

    if (format == "archive") {
      logger::ArchiveOptions aopt;
      core::MatchParams ap;
      ap.window_bits = window_bits;
      aopt.params = ap.with_level(level);
      aopt.block_bytes = block_kb * 1024;
      aopt.use_hw_model = use_hw;
      logger::ArchiveWriter writer(aopt);
      writer.append(input);
      const auto out = writer.finish();
      write_file(files[1], out);
      std::printf("%zu -> %zu bytes (ratio %.3f, archive, %zu KiB blocks)\n", input.size(),
                  out.size(), input.empty() ? 0.0 : double(input.size()) / double(out.size()),
                  block_kb);
      return 0;
    }

    std::vector<core::Token> tokens;
    deflate::BlockKind kind = deflate::BlockKind::kDynamic;
    if (use_hw) {
      hw::Compressor comp(hw::HwConfig::speed_optimized().with_level(level));
      const auto res = comp.compress(input);
      tokens = std::move(res.tokens);
      kind = deflate::BlockKind::kFixed;  // what the hardware emits
      std::printf("hw model: %.3f cycles/byte, %.1f MB/s @ 100 MHz\n",
                  res.stats.cycles_per_byte(), res.stats.mb_per_s(100.0));
      window_bits = comp.config().dict_bits;
    } else {
      core::MatchParams p;
      p.window_bits = window_bits;
      core::MatchFinderEncoder enc(p.with_level(level));
      tokens = enc.encode(input);
    }
    if (huffman == "fixed") kind = deflate::BlockKind::kFixed;
    if (huffman == "dyn") kind = deflate::BlockKind::kDynamic;

    const auto payload = kind == deflate::BlockKind::kFixed ? deflate::deflate_fixed(tokens)
                                                            : deflate::deflate_dynamic(tokens);
    std::vector<std::uint8_t> out;
    if (format == "zlib") {
      out = deflate::zlib_wrap(payload, checksum::adler32(input),
                               std::max(8u, std::min(15u, window_bits)));
    } else {
      out = deflate::gzip_wrap(payload, checksum::crc32(input),
                               static_cast<std::uint32_t>(input.size()));
    }
    write_file(files[1], out);
    std::printf("%zu -> %zu bytes (ratio %.3f, %s, %s huffman)\n", input.size(), out.size(),
                input.empty() ? 0.0 : double(input.size()) / double(out.size()), format.c_str(),
                kind == deflate::BlockKind::kFixed ? "fixed" : "dynamic");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
