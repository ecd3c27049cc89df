#include "lzss/match_finder.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "lzss/simd_compare.hpp"
#include "lzss/token.hpp"

namespace lzss::core {

std::unique_ptr<MatchFinder> make_suffix_array_finder(const MatchParams& params);
std::unique_ptr<MatchFinder> make_greedy_finder(const MatchParams& params);

namespace {

// zlib's head/prev chain finder: INSERT_STRING, longest_match with its
// chain bounds and tired-searcher/nice cutoffs, and the insert policies of
// deflate_fast and deflate_slow. Only the inner byte compare is routed
// through the SIMD comparer. The census counts the operations zlib executes
// and the observer sees them in zlib's order; both feed the PPC440 models.
class HashChainFinder final : public MatchFinder {
 public:
  explicit HashChainFinder(const MatchParams& params) : params_(params) {
    head_.assign(params_.hash.table_size(), kNil);
    prev_.assign(params_.window_size(), kNil);
  }

  [[nodiscard]] MatchFinderKind kind() const noexcept override {
    return MatchFinderKind::kHashChain;
  }

  void seed(std::span<const std::uint8_t> block) override {
    in_ = block;
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(prev_.begin(), prev_.end(), kNil);
    ++stats_.seeds;
  }

  [[nodiscard]] MatchCandidate find_longest_match(std::uint64_t pos,
                                                  std::uint32_t best_so_far) override {
    return observer_ != nullptr ? search<true>(pos, best_so_far) : search<false>(pos, best_so_far);
  }

  void advance(std::uint64_t pos, std::uint32_t covered) override {
    // deflate_fast indexes the covered positions only for short matches
    // (max_insert_length == max_lazy); deflate_slow indexes all of them.
    if (params_.strategy == Strategy::kFast && covered > params_.max_lazy) return;
    for (std::uint64_t k = pos + 1; k < pos + covered && k + kMinMatch <= in_.size(); ++k) {
      if (observer_ != nullptr) {
        insert<true>(k);
      } else {
        insert<false>(k);
      }
    }
  }

 private:
  static constexpr std::uint64_t kNil = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t wmask() const noexcept { return params_.window_size() - 1; }

  // kTraced instantiations report every reference to observer_. The untraced
  // ones carry no check for it: a branch per reference measurably slows the
  // search loop.
  template <bool kTraced>
  void trace(MemRegion region, std::uint64_t index) {
    if constexpr (kTraced) observer_->on_access(region, index);
  }

  /// zlib longest_match, after indexing @p pos.
  template <bool kTraced>
  MatchCandidate search(std::uint64_t pos, std::uint32_t best_so_far) {
    assert(pos + kMinMatch <= in_.size());
    const std::uint64_t head = insert<kTraced>(pos);
    if (head == kNil) return {};

    const std::uint32_t max_len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kMaxMatch, in_.size() - pos));
    if (max_len < kMinMatch) return {};

    std::uint32_t chain_left = params_.max_chain;
    if (best_so_far >= params_.good_length) chain_left >>= 2;  // zlib: tired searcher
    const std::uint32_t nice = std::min<std::uint32_t>(params_.nice_length, max_len);
    const std::uint64_t limit =
        pos > params_.max_distance() ? pos - params_.max_distance() : 0;

    MatchCandidate best{};
    std::uint32_t best_len = std::max(best_so_far, kMinMatch - 1);
    std::uint64_t cur = head;

    while (cur != kNil && cur >= limit && cur < pos && chain_left-- > 0) {
      ++stats_.probes;
      const std::uint32_t len = static_cast<std::uint32_t>(
          simd::match_length(in_.data() + cur, in_.data() + pos, max_len));
      const std::uint32_t compared = std::min<std::uint32_t>(len + 1, max_len);
      stats_.compare_bytes += compared;
      if constexpr (kTraced) {
        // Both compare operands touch memory; sample at line granularity
        // rather than per byte (the inner loop streams within a line).
        for (std::uint32_t off = 0; off < compared; off += 32) {
          trace<kTraced>(MemRegion::kWindow, cur + off);
          trace<kTraced>(MemRegion::kWindow, pos + off);
        }
      }
      if (len > best_len) {
        best_len = len;
        best = {len, static_cast<std::uint32_t>(pos - cur)};
        if (len >= nice) break;
      }
      trace<kTraced>(MemRegion::kPrev, cur & wmask());
      const std::uint64_t prior = prev_[cur & wmask()];
      if (prior != kNil && prior >= cur) break;  // chain entry overwritten by a newer position
      cur = prior;
    }
    return best;
  }

  /// zlib's INSERT_STRING: links @p pos into its hash chain and returns the
  /// previous chain head.
  template <bool kTraced>
  std::uint64_t insert(std::uint64_t pos) {
    const std::uint32_t h = params_.hash.hash3(in_[pos], in_[pos + 1], in_[pos + 2]);
    ++stats_.insertions;
    trace<kTraced>(MemRegion::kWindow, pos);  // the 3 hashed bytes share a line
    trace<kTraced>(MemRegion::kHead, h);      // read-modify-write of head[h]
    trace<kTraced>(MemRegion::kPrev, pos & wmask());
    const std::uint64_t prior = head_[h];
    prev_[pos & wmask()] = prior;
    head_[h] = pos;
    return prior;
  }

  MatchParams params_;
  std::span<const std::uint8_t> in_;
  std::vector<std::uint64_t> head_;  // hash -> most recent position, kNil when empty
  std::vector<std::uint64_t> prev_;  // pos & wmask -> previous position in chain
};

}  // namespace

std::unique_ptr<MatchFinder> make_match_finder(MatchFinderKind kind, const MatchParams& params) {
  switch (kind) {
    case MatchFinderKind::kHashChain:
      return std::make_unique<HashChainFinder>(params);
    case MatchFinderKind::kSuffixArray:
      return make_suffix_array_finder(params);
    case MatchFinderKind::kGreedy:
      return make_greedy_finder(params);
  }
  return std::make_unique<HashChainFinder>(params);
}

}  // namespace lzss::core
