#include "bram/dual_port_ram.hpp"

#include <algorithm>

namespace lzss::bram {

DualPortRam::DualPortRam(std::string name, std::size_t depth, unsigned width_bits)
    : name_(std::move(name)),
      width_bits_(width_bits),
      mask_(width_bits >= 32 ? 0xFFFFFFFFu : ((1u << width_bits) - 1u)),
      data_(depth, 0) {
  if (depth == 0) throw std::invalid_argument("DualPortRam " + name_ + ": zero depth");
  if (width_bits == 0 || width_bits > 32)
    throw std::invalid_argument("DualPortRam " + name_ + ": width must be 1..32 bits");
}

void DualPortRam::fail_conflict(std::size_t port_index) const {
  throw PortConflictError("DualPortRam " + name_ + ": port " + (port_index == 0 ? "A" : "B") +
                          " used twice in one cycle");
}

void DualPortRam::fail_range(const char* what) const {
  throw std::out_of_range("DualPortRam " + name_ + ": " + what);
}

void DualPortRam::reset() {
  std::fill(data_.begin(), data_.end(), 0u);
  stats_[0] = PortStats{};
  stats_[1] = PortStats{};
  port_used_[0] = port_used_[1] = false;
}

}  // namespace lzss::bram
