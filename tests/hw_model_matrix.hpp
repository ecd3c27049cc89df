// Shared by the cycle-model golden and differential tests: the hardware
// configurations that between them reach every branch of the model's
// per-cycle code (bus width, prefetch, generation bits, throttled fill-ahead,
// head split, hash kind, deep chains), and flat, named views of the
// CycleStats census and the five memories' port counters so a mismatch
// names the field that moved.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bram/dual_port_ram.hpp"
#include "estimator/presets.hpp"
#include "hw/compressor.hpp"
#include "hw/config.hpp"
#include "server/service.hpp"

namespace lzss::hw::testutil {

struct NamedConfig {
  const char* name;
  HwConfig config;
};

inline std::vector<NamedConfig> config_matrix() {
  const HwConfig base = server::ServiceConfig{}.hw;
  std::vector<NamedConfig> out;
  out.push_back({"default", base});
  out.push_back({"level9", HwConfig::speed_optimized().with_level(9)});
  {
    HwConfig c = base;
    c.bus_width_bytes = 1;
    c.hash_prefetch = false;
    out.push_back({"bus1-noprefetch", c});
  }
  {
    HwConfig c = base;
    c.generation_bits = 0;
    out.push_back({"gen0", c});
  }
  {
    HwConfig c = base;
    c.generation_bits = 1;
    out.push_back({"gen1", c});
  }
  {
    // dict_size == 2 * lookahead: the fill-ahead is throttled to 262 bytes.
    HwConfig c = base;
    c.dict_bits = 10;
    out.push_back({"dict10", c});
  }
  {
    HwConfig c = base;
    c.head_split = 2;
    out.push_back({"split2", c});
  }
  {
    HwConfig c = base;
    c.hash.kind = core::HashKind::kMultiplicative;
    out.push_back({"mulhash", c});
  }
  out.push_back({"ratio", est::preset_by_name("ratio").config});
  return out;
}

inline constexpr const char* kCensusFields[] = {
    "waiting",     "fetching",    "matching",      "output",
    "updating",    "rotating",    "total_cycles",  "bytes_in",
    "literals",    "matches",     "match_bytes",   "chain_probes",
    "compare_bytes", "rotation_passes", "output_stall_cycles", "prefetch_hits"};
using Census = std::array<std::uint64_t, std::size(kCensusFields)>;

inline Census census(const CycleStats& s) {
  return {s.waiting,      s.fetching,    s.matching,    s.output,
          s.updating,     s.rotating,    s.total_cycles, s.bytes_in,
          s.literals,     s.matches,     s.match_bytes, s.chain_probes,
          s.compare_bytes, s.rotation_passes, s.output_stall_cycles, s.prefetch_hits};
}

/// reads, writes, busy_cycles of port A then port B, for lookahead,
/// dictionary, hash_cache, head and next, in that order.
using PortCensus = std::array<std::uint64_t, 30>;

inline PortCensus port_census(const Compressor& comp) {
  PortCensus out{};
  std::size_t i = 0;
  for (const bram::DualPortRam* ram : {&comp.lookahead_ram(), &comp.dictionary_ram(),
                                       &comp.hash_cache_ram(), &comp.head_ram(),
                                       &comp.next_ram()}) {
    for (const bram::Port port : {bram::Port::A, bram::Port::B}) {
      const bram::PortStats& st = ram->stats(port);
      out[i++] = st.reads;
      out[i++] = st.writes;
      out[i++] = st.busy_cycles;
    }
  }
  return out;
}

inline std::string port_field_name(std::size_t i) {
  static constexpr const char* kRams[] = {"lookahead", "dictionary", "hash_cache", "head",
                                          "next"};
  static constexpr const char* kCounters[] = {"reads", "writes", "busy_cycles"};
  return std::string(kRams[i / 6]) + (i % 6 < 3 ? ".A." : ".B.") + kCounters[i % 3];
}

}  // namespace lzss::hw::testutil
