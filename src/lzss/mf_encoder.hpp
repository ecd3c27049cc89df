// MatchFinderEncoder — the software LZSS compressor.
//
// zlib's two parsing loops over any MatchFinder backend, chosen by
// params.strategy: deflate_fast (greedy, levels 1-3) and deflate_slow (lazy
// matching with the TOO_FAR rule, levels 4-9). Over the kHashChain backend
// it is the paper's software baseline, zlib's deflate: same tokens, and the
// finder's census and access trace drive the PPC440 models (swmodel/).
// Other backends change only where matches come from.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lzss/match_finder.hpp"
#include "lzss/token.hpp"

namespace lzss::core {

class MatchFinderEncoder {
 public:
  /// Backend selected by @p params.finder.
  explicit MatchFinderEncoder(MatchParams params);

  /// Compresses @p input into a token stream (one pass).
  [[nodiscard]] std::vector<Token> encode(std::span<const std::uint8_t> input);

  [[nodiscard]] MatchFinderKind kind() const noexcept { return finder_->kind(); }
  /// The census, accumulated over every encode() call.
  [[nodiscard]] const FinderStats& finder_stats() const noexcept { return finder_->stats(); }
  [[nodiscard]] const MatchParams& params() const noexcept { return params_; }

  /// Streams the finder's memory references to @p observer during encode();
  /// nullptr detaches (the default).
  void set_access_observer(AccessObserver* observer) noexcept {
    finder_->set_access_observer(observer);
  }

 private:
  void encode_fast(std::span<const std::uint8_t> in, std::vector<Token>& out);
  void encode_slow(std::span<const std::uint8_t> in, std::vector<Token>& out);

  MatchParams params_;
  std::unique_ptr<MatchFinder> finder_;
};

}  // namespace lzss::core
