// Dynamic-reconfiguration loader — the use case of the paper's reference
// [10] (Huebner et al.): store FPGA configuration bitstreams compressed and
// inflate them in hardware at (re)configuration time.
//
// Offline, the host compresses each partial bitstream with the software
// encoder into the zlib-compatible fixed-Huffman format the decode pipeline
// accepts. At boot, the decode pipeline (DMA -> fixed-table Huffman decoder
// -> LZSS window unit) streams the configuration out faster than the flash
// that holds it could have delivered the uncompressed image.
#include <cstdio>
#include <vector>

#include "deflate/encoder.hpp"
#include "hw/pipeline.hpp"
#include "lzss/mf_encoder.hpp"
#include "workloads/bitstream_gen.hpp"

int main() {
  using namespace lzss;

  // Three partial reconfiguration regions of different sizes.
  const std::size_t kRegions[] = {256 * 1024, 512 * 1024, 1536 * 1024};

  std::printf("partial-reconfiguration loader (decode pipeline @ 100 MHz)\n\n");
  std::printf("%-9s %12s %12s %8s %14s %16s\n", "region", "bitstream", "stored", "ratio",
              "decomp MB/s", "load time (ms)");

  double total_saved = 0, total_raw = 0;
  for (std::size_t i = 0; i < std::size(kRegions); ++i) {
    const auto bitstream = wl::fpga_bitstream(kRegions[i], i + 1);

    // Offline compression (host side, software encoder; fixed-Huffman
    // block because that is what the hardware decoder accepts).
    core::MatchParams p;
    p.window_bits = 12;
    core::MatchFinderEncoder enc(p.with_level(9));
    const auto tokens = enc.encode(bitstream);
    const auto stored = deflate::deflate_fixed(tokens);

    // Boot-time decompression through the cycle-accurate decode pipeline.
    const auto report = hw::run_decode_system(hw::DecompressorConfig{}, stored);
    if (report.data != bitstream) {
      std::fprintf(stderr, "region %zu: reconfiguration data corrupt!\n", i);
      return 1;
    }
    const double mbps = report.mb_per_s(100.0);
    const double ms = static_cast<double>(report.total_cycles) / 100e6 * 1e3;
    std::printf("%-9zu %12zu %12zu %8.2f %14.1f %16.3f\n", i, bitstream.size(), stored.size(),
                double(bitstream.size()) / double(stored.size()), mbps, ms);
    total_raw += static_cast<double>(bitstream.size());
    total_saved += static_cast<double>(bitstream.size() - stored.size());
  }
  std::printf("\nconfiguration flash saved: %.1f%% across %.1f MB of bitstreams\n",
              100.0 * total_saved / total_raw, total_raw / 1e6);
  return 0;
}
