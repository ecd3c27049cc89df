#include "hw/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/vcd.hpp"
#include "hw_model_matrix.hpp"
#include "lzss/decoder.hpp"
#include "workloads/corpus.hpp"

namespace lzss {
namespace {

// --- VcdWriter ------------------------------------------------------------

TEST(VcdWriter, HeaderStructure) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut", "10 ns");
  (void)w.add_signal("clk_state", 3);
  (void)w.add_signal("flag", 1);
  w.begin_dump();
  const std::string text = os.str();
  EXPECT_NE(text.find("$timescale 10 ns $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module dut $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 3 "), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 "), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("$dumpvars"), std::string::npos);
}

TEST(VcdWriter, DeclarationsLockAfterDump) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut");
  w.begin_dump();
  EXPECT_THROW((void)w.add_signal("late", 1), std::logic_error);
}

TEST(VcdWriter, WidthValidation) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut");
  EXPECT_THROW((void)w.add_signal("zero", 0), std::invalid_argument);
  EXPECT_THROW((void)w.add_signal("wide", 65), std::invalid_argument);
}

TEST(VcdWriter, OnlyChangesAreWritten) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut");
  const auto s = w.add_signal("v", 8);
  w.begin_dump();
  const auto base = w.changes_written();
  w.change(s, 5);
  w.tick();
  w.change(s, 5);  // unchanged
  w.tick();
  w.change(s, 6);
  w.tick();
  EXPECT_EQ(w.changes_written() - base, 2u);
}

TEST(VcdWriter, ScalarAndVectorFormats) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut");
  const auto flag = w.add_signal("flag", 1);
  const auto bus = w.add_signal("bus", 8);
  w.begin_dump();
  w.change(flag, 1);
  w.change(bus, 0xA5);
  w.tick();
  const std::string text = os.str();
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("b10100101 "), std::string::npos);
}

TEST(VcdWriter, TimeAdvancesPerTick) {
  std::ostringstream os;
  vcd::VcdWriter w(os, "dut");
  const auto s = w.add_signal("v", 4);
  w.begin_dump();
  for (int i = 0; i < 5; ++i) {
    w.change(s, static_cast<std::uint64_t>(i));
    w.tick();
  }
  EXPECT_EQ(w.cycles(), 5u);
  EXPECT_NE(os.str().find("#4"), std::string::npos);
}

// --- trace_compression ------------------------------------------------------

TEST(TraceCompression, ProducesResultIdenticalToPlainRun) {
  // Tracing steps the model one clock at a time and samples it between
  // cycles; compress() runs the same clock unobserved. Every token, every
  // census field and every port counter must agree.
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  for (const auto& [name, config] : hw::testutil::config_matrix()) {
    SCOPED_TRACE(name);
    std::ostringstream os;
    hw::Compressor traced_comp(config);
    const auto traced = hw::trace_compression(traced_comp, data, os);
    hw::Compressor plain_comp(config);
    const auto plain = plain_comp.compress(data);
    EXPECT_EQ(traced.tokens, plain.tokens);
    const auto traced_census = hw::testutil::census(traced.stats);
    const auto plain_census = hw::testutil::census(plain.stats);
    for (std::size_t i = 0; i < traced_census.size(); ++i)
      EXPECT_EQ(traced_census[i], plain_census[i]) << hw::testutil::kCensusFields[i];
    const auto traced_ports = hw::testutil::port_census(traced_comp);
    const auto plain_ports = hw::testutil::port_census(plain_comp);
    for (std::size_t i = 0; i < traced_ports.size(); ++i)
      EXPECT_EQ(traced_ports[i], plain_ports[i]) << hw::testutil::port_field_name(i);
    EXPECT_TRUE(core::tokens_reproduce(traced.tokens, data));
  }
}

TEST(TraceCompression, WaveformContainsAllSignals) {
  const auto data = wl::make_corpus("mixed", 4 * 1024);
  std::ostringstream os;
  (void)hw::trace_compression(hw::HwConfig::speed_optimized(), data, os);
  const std::string text = os.str();
  for (const char* sig : {"fsm_state", "position", "fill_position", "lookahead_occupancy",
                          "best_match_len", "chain_left", "candidate_len"}) {
    EXPECT_NE(text.find(sig), std::string::npos) << sig;
  }
  // Roughly one timestamp per cycle; the trace must be substantial.
  EXPECT_GT(std::count(text.begin(), text.end(), '#'), 1000);
}

TEST(TraceCompression, MaxCyclesLimitsFileNotRun) {
  const auto data = wl::make_corpus("wiki", 32 * 1024);
  std::ostringstream limited, full;
  hw::TraceOptions opt;
  opt.max_trace_cycles = 500;
  const auto a = hw::trace_compression(hw::HwConfig::speed_optimized(), data, limited, opt);
  const auto b = hw::trace_compression(hw::HwConfig::speed_optimized(), data, full);
  EXPECT_EQ(a.tokens, b.tokens);  // the run itself is unaffected
  EXPECT_LT(limited.str().size(), full.str().size() / 4);
}

}  // namespace
}  // namespace lzss
