#include "swmodel/ppc440_model.hpp"

namespace lzss::swm {

SwTiming price(const core::FinderStats& census, std::uint64_t tokens, std::uint64_t bytes,
               const Ppc440Costs& c) {
  SwTiming t;
  t.cycles = c.per_byte * static_cast<double>(bytes) +
             c.per_hash * static_cast<double>(census.insertions) +
             c.per_probe * static_cast<double>(census.probes) +
             c.per_compare_byte * static_cast<double>(census.compare_bytes) +
             c.per_token * static_cast<double>(tokens);
  t.seconds = t.cycles / (c.clock_mhz * 1e6);
  t.mb_per_s = t.seconds == 0.0 ? 0.0 : static_cast<double>(bytes) / 1e6 / t.seconds;
  return t;
}

}  // namespace lzss::swm
