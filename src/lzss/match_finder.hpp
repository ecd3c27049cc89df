// Pluggable match-finder backends for the software compressor.
//
// The paper's profiling (and our live hw_state_cycles_total{state="matching"}
// census) shows match search dominates the compression hot path. This
// interface splits "find the longest match" from "emit tokens" so the search
// strategy can be swapped per request:
//
//   kHashChain    zlib-style head/prev chains with zlib's probe order and
//                 insert policy — the paper's software baseline (zlib's
//                 deflate on the PPC440). Its operation census and memory
//                 reference stream drive the PPC440 models in swmodel/.
//   kSuffixArray  per-block suffix array + inverse + Kasai LCP; matches are
//                 found by an LCP-bounded walk of rank neighbors. Higher
//                 seed cost, near-constant probe cost, best worst-case
//                 behavior (Ferreira et al., arXiv:0912.5449).
//   kGreedy       LZ4-style single-probe wide-hash table over 4-byte
//                 windows: one candidate per position, verified and
//                 extended by the SIMD comparer (arXiv:2409.12433).
//
// All backends verify/extend candidates through simd::match_length(), the
// software twin of the paper's wide-bus comparer.
//
// Contract:
//   seed(block)                binds the input block and resets all index
//                              state; must be called before the others.
//   find_longest_match(p, b)   returns the longest match for position p that
//                              is strictly longer than b (length 0 = none).
//                              Requires p + kMinMatch <= block.size(). As in
//                              zlib, the call also indexes position p.
//   advance(p, n)              informs the finder that the encoder moves
//                              from p, the last position it searched, to
//                              p + n without searching the positions in
//                              between; the finder indexes those per its
//                              policy (zlib's differs between the greedy and
//                              the lazy strategy).
// Matches always point backwards within the seeded block (distance <= p and
// <= params.max_distance()), so any decoded prefix can resolve them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "lzss/params.hpp"

namespace lzss::core {

struct MatchCandidate {
  std::uint32_t length = 0;  ///< 0 = no acceptable match
  std::uint32_t distance = 0;
};

/// Per-finder operation census; feeds the matchfinder_* server metrics, the
/// bench sweep and the PPC440 timing model (swmodel/ppc440_model.hpp).
struct FinderStats {
  std::uint64_t seeds = 0;          ///< blocks seeded (SA rebuilds for kSuffixArray)
  std::uint64_t insertions = 0;     ///< head/prev chain insertions (kHashChain only)
  std::uint64_t probes = 0;         ///< candidate positions examined
  std::uint64_t compare_bytes = 0;  ///< bytes run through the comparer
};

/// Which data structure a traced memory reference touched.
enum class MemRegion : std::uint8_t {
  kWindow,  ///< input/window bytes (1-byte elements)
  kHead,    ///< hash head table (2-byte Pos entries, as in zlib)
  kPrev,    ///< prev chain table (2-byte Pos entries)
};

/// Observer for a finder's memory reference stream; drives the trace-based
/// PPC440 cache model (swmodel/cache_sim.hpp).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// @param index element index within the region (not a byte address).
  virtual void on_access(MemRegion region, std::uint64_t index) = 0;
};

class MatchFinder {
 public:
  virtual ~MatchFinder() = default;

  [[nodiscard]] virtual MatchFinderKind kind() const noexcept = 0;
  virtual void seed(std::span<const std::uint8_t> block) = 0;
  [[nodiscard]] virtual MatchCandidate find_longest_match(std::uint64_t pos,
                                                          std::uint32_t best_so_far) = 0;
  virtual void advance(std::uint64_t pos, std::uint32_t covered) = 0;

  [[nodiscard]] const FinderStats& stats() const noexcept { return stats_; }

  /// Streams every head/prev/window reference to @p observer; nullptr
  /// detaches (the default). Only kHashChain, the modelled zlib, emits any.
  void set_access_observer(AccessObserver* observer) noexcept { observer_ = observer; }

 protected:
  FinderStats stats_{};
  AccessObserver* observer_ = nullptr;
};

[[nodiscard]] std::unique_ptr<MatchFinder> make_match_finder(MatchFinderKind kind,
                                                             const MatchParams& params);

}  // namespace lzss::core
