// VCD waveform tracing of a compression run.
//
// Dumps the main FSM state and the interesting architectural registers one
// sample per clock, producing a file GTKWave opens directly. Intended for
// debugging the model (or for teaching: the paper's section IV state flow is
// literally visible in the waveform).
#pragma once

#include <ostream>
#include <span>

#include "hw/compressor.hpp"

namespace lzss::hw {

struct TraceOptions {
  /// Stop tracing after this many cycles (the run itself continues);
  /// keeps waveforms of long inputs manageable. 0 = no limit.
  std::uint64_t max_trace_cycles = 0;
};

/// Compresses @p data under @p config, writing a VCD waveform to @p vcd_out.
/// Returns the same result compress() would.
CompressResult trace_compression(const HwConfig& config, std::span<const std::uint8_t> data,
                                 std::ostream& vcd_out, TraceOptions options = {});

/// The same on a caller-owned @p comp (reset first), whose memories' port
/// counters then describe the traced run.
CompressResult trace_compression(Compressor& comp, std::span<const std::uint8_t> data,
                                 std::ostream& vcd_out, TraceOptions options = {});

}  // namespace lzss::hw
