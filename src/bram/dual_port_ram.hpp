// Dual-port block-RAM model.
//
// Models the property the paper's whole performance argument rests on: a
// true-dual-port BRAM services one access per port per clock cycle, and the
// two ports are fully independent. The model is functional (reads return the
// stored value immediately — the surrounding FSMs charge the read latency in
// their own cycle accounting, exactly like the authors' cycle-accurate C++
// estimator) but *structurally strict*: using a port twice in one cycle, or
// addressing out of range, is a modelling bug and is reported as such.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace lzss::bram {

enum class Port : std::uint8_t { A = 0, B = 1 };

/// Per-port access counters, exposed for utilization reports and tests.
struct PortStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Cycles in which the port performed at least one access.
  std::uint64_t busy_cycles = 0;
};

/// Thrown when a component violates the one-access-per-port-per-cycle rule.
class PortConflictError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A depth x width_bits dual-port synchronous RAM.
///
/// Values are stored in uint32_t words; width_bits <= 32. Writes are masked
/// to the configured width so stale high bits can never leak between fields
/// that share a memory.
class DualPortRam {
 public:
  DualPortRam(std::string name, std::size_t depth, unsigned width_bits);

  // The per-access members below are defined in the class so that the
  // cycle model, which calls them several times per simulated clock, pays
  // no call per access. Every access still checks its port and its address;
  // only building the exception is out of line.

  /// Reads one word through @p port in the current cycle.
  [[nodiscard]] std::uint32_t read(Port port, std::size_t addr) {
    use_port(port, /*is_write=*/false, addr);
    return data_[addr];
  }

  /// Writes one word through @p port in the current cycle.
  void write(Port port, std::size_t addr, std::uint32_t value) {
    use_port(port, /*is_write=*/true, addr);
    data_[addr] = value & mask_;
  }

  /// READ_FIRST write: stores @p value and returns the previous content, as
  /// a single port operation (Virtex-5 write-mode READ_FIRST). This is how
  /// the head table is read and updated in the same clock cycle.
  [[nodiscard]] std::uint32_t exchange(Port port, std::size_t addr, std::uint32_t value) {
    use_port(port, /*is_write=*/true, addr);
    const std::uint32_t old = data_[addr];
    data_[addr] = value & mask_;
    return old;
  }

  /// Advances the clock: re-arms both ports for the next cycle.
  void tick() noexcept {
    port_used_[0] = false;
    port_used_[1] = false;
  }

  /// Debug/testbench backdoor: no port usage, no cycle accounting.
  [[nodiscard]] std::uint32_t peek(std::size_t addr) const {
    if (addr >= data_.size()) [[unlikely]] fail_range("peek OOR");
    return data_[addr];
  }
  void poke(std::size_t addr, std::uint32_t value) {
    if (addr >= data_.size()) [[unlikely]] fail_range("poke OOR");
    data_[addr] = value & mask_;
  }

  /// Backdoor over the whole memory: replaces every word w with fn(w), with
  /// no port usage and no cycle accounting.
  template <typename Fn>
  void backdoor_update(Fn fn) {
    for (std::uint32_t& w : data_) w = fn(w) & mask_;
  }

  /// Clears contents to zero and resets statistics.
  void reset();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t depth() const noexcept { return data_.size(); }
  [[nodiscard]] unsigned width_bits() const noexcept { return width_bits_; }
  [[nodiscard]] std::size_t bit_count() const noexcept { return depth() * width_bits_; }
  [[nodiscard]] const PortStats& stats(Port port) const noexcept {
    return stats_[static_cast<std::size_t>(port)];
  }

 private:
  void use_port(Port port, bool is_write, std::size_t addr) {
    const auto idx = static_cast<std::size_t>(port);
    if (port_used_[idx]) [[unlikely]] fail_conflict(idx);
    if (addr >= data_.size()) [[unlikely]] fail_range("address out of range");
    port_used_[idx] = true;
    auto& st = stats_[idx];
    (is_write ? st.writes : st.reads) += 1;
    st.busy_cycles += 1;
  }
  [[noreturn]] void fail_conflict(std::size_t port_index) const;
  [[noreturn]] void fail_range(const char* what) const;

  std::string name_;
  unsigned width_bits_;
  std::uint32_t mask_;
  std::vector<std::uint32_t> data_;
  bool port_used_[2] = {false, false};
  PortStats stats_[2];
};

}  // namespace lzss::bram
