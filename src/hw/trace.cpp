#include "hw/trace.hpp"

#include <stdexcept>

#include "common/vcd.hpp"

namespace lzss::hw {

CompressResult trace_compression(const HwConfig& config, std::span<const std::uint8_t> data,
                                 std::ostream& vcd_out, TraceOptions options) {
  Compressor comp(config);
  return trace_compression(comp, data, vcd_out, options);
}

CompressResult trace_compression(Compressor& comp, std::span<const std::uint8_t> data,
                                 std::ostream& vcd_out, TraceOptions options) {
  comp.reset();
  comp.set_input(data);

  vcd::VcdWriter w(vcd_out, "lzss_compressor");
  const auto sig_state = w.add_signal("fsm_state", 3);
  const auto sig_pos = w.add_signal("position", 32);
  const auto sig_fill = w.add_signal("fill_position", 32);
  const auto sig_occ = w.add_signal("lookahead_occupancy", 16);
  const auto sig_best = w.add_signal("best_match_len", 9);
  const auto sig_chain = w.add_signal("chain_left", 13);
  const auto sig_cand = w.add_signal("candidate_len", 9);
  w.begin_dump();

  const std::uint64_t guard =
      static_cast<std::uint64_t>(data.size()) * (comp.config().max_chain + 8) * 8 + 1'000'000;
  while (!comp.done()) {
    comp.step();
    if (options.max_trace_cycles == 0 || w.cycles() < options.max_trace_cycles) {
      const auto v = comp.debug_view();
      w.change(sig_state, v.state_code);
      w.change(sig_pos, v.pos & 0xFFFFFFFFu);
      w.change(sig_fill, v.fill_pos & 0xFFFFFFFFu);
      w.change(sig_occ, v.occupancy & 0xFFFFu);
      w.change(sig_best, v.best_len);
      w.change(sig_chain, v.chain_left);
      w.change(sig_cand, v.cand_len);
      w.tick();
    }
    if (comp.stats().total_cycles > guard)
      throw std::runtime_error("trace_compression: cycle guard exceeded");
  }
  return {comp.tokens(), comp.stats()};
}

}  // namespace lzss::hw
