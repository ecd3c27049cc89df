// Table I — performance evaluation: software (zlib on the 400 MHz
// PowerPC-440, modelled) vs hardware (100 MHz, 4 KB dictionary, 15-bit
// hash), on the Wiki and X2E data sets at two block sizes, with DMA setup
// time included exactly as the paper measures it.
//
// Paper anchors: HW ~= 49-50 MB/s, speedup 15-20x, ratios 1.68-1.70.
#include "bench_util.hpp"

#include "hw/pipeline.hpp"
#include "lzss/mf_encoder.hpp"
#include "swmodel/ppc440_model.hpp"

namespace {

using namespace lzss;

struct Row {
  std::string label;
  double sw_mbps, hw_mbps, speedup, ratio;
};

Row run_row(const std::string& corpus, std::size_t bytes) {
  const auto data = wl::make_corpus(corpus, bytes);

  // Hardware: full testbench pipeline (DMA setup included).
  const hw::HwConfig cfg = hw::HwConfig::speed_optimized();
  const auto report = hw::run_system(cfg, data);

  // Software baseline: zlib-equivalent encoder priced on the PPC440 model.
  core::MatchParams p = core::MatchParams::speed_optimized();
  core::MatchFinderEncoder sw(p);
  const auto tokens = sw.encode(data);
  const auto timing = swm::price(sw.finder_stats(), tokens.size(), data.size());

  Row r;
  r.label = corpus + " " + std::to_string(bytes / 1'000'000) + "MB";
  r.sw_mbps = timing.mb_per_s;
  r.hw_mbps = report.mb_per_s(cfg.clock_mhz);
  r.speedup = r.hw_mbps / r.sw_mbps;
  r.ratio = report.ratio();
  return r;
}

void print_tables() {
  bench::print_title("TABLE I — PERFORMANCE EVALUATION",
                     "paper: HW ~49-50 MB/s @100 MHz, speedup 15-20x, ratio 1.68-1.70\n"
                     "(SW = zlib level 1 on PPC440 @400 MHz, modelled; DMA setup included)");

  const std::size_t big = bench::sample_bytes(10);
  const std::size_t small = std::max<std::size_t>(big / 5, 1'000'000);

  std::printf("%-14s %12s %12s %10s %14s\n", "Data sample", "SW (MB/s)", "HW (MB/s)", "Speedup",
              "Compr. ratio");
  for (const auto& row : {run_row("wiki", big), run_row("wiki", small), run_row("x2e", big),
                          run_row("x2e", small)}) {
    std::printf("%-14s %12.2f %12.1f %9.1fx %14.2f\n", row.label.c_str(), row.sw_mbps,
                row.hw_mbps, row.speedup, row.ratio);
  }
}

// Host-side cost of the two compressors (the simulator itself and the
// software encoder), for people profiling the library rather than the model.
void BM_HwModel(benchmark::State& state) {
  const auto& data = bench::cached_corpus("wiki", 256 * 1024);
  hw::Compressor comp(hw::HwConfig::speed_optimized());
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.compress(data).tokens.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_HwModel)->Unit(benchmark::kMillisecond);

void BM_SwEncoder(benchmark::State& state) {
  const auto& data = bench::cached_corpus("wiki", 256 * 1024);
  core::MatchFinderEncoder enc(core::MatchParams::speed_optimized());
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(data).size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_SwEncoder)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return lzss::bench::run_bench_main(argc, argv, print_tables);
}
