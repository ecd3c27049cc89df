#include "swmodel/cache_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "lzss/mf_encoder.hpp"

namespace lzss::swm {

CacheSim::CacheSim(CacheGeometry geometry) : geo_(geometry) {
  const std::uint32_t sets = geo_.num_sets();
  if (sets == 0 || (sets & (sets - 1)) != 0)
    throw std::invalid_argument("CacheSim: set count must be a power of two >= 1");
  if ((geo_.line_bytes & (geo_.line_bytes - 1)) != 0)
    throw std::invalid_argument("CacheSim: line size must be a power of two");
  set_mask_ = sets - 1;
  line_shift_ = 0;
  while ((1u << line_shift_) < geo_.line_bytes) ++line_shift_;
  sets_.resize(sets);
  for (auto& s : sets_) s.tags.reserve(geo_.ways);
}

bool CacheSim::access(std::uint64_t address) {
  const std::uint64_t line = address >> line_shift_;
  Set& set = sets_[line & set_mask_];
  auto& tags = set.tags;

  const auto it = std::find(tags.begin(), tags.end(), line);
  if (it != tags.end()) {
    // LRU touch: rotate the hit tag to the front.
    std::rotate(tags.begin(), it, it + 1);
    ++hits_;
    return true;
  }
  ++misses_;
  if (tags.size() == geo_.ways) tags.pop_back();  // evict LRU
  tags.insert(tags.begin(), line);
  return false;
}

void CacheSim::reset() {
  for (auto& s : sets_) s.tags.clear();
  hits_ = 0;
  misses_ = 0;
}

namespace {

/// Maps the encoder's (region, index) references onto a flat PPC address
/// space with zlib's element sizes (window bytes, 2-byte Pos entries) and
/// feeds them to the cache.
class TraceAdapter final : public core::AccessObserver {
 public:
  explicit TraceAdapter(CacheSim& cache, unsigned window_bits, unsigned hash_bits)
      : cache_(&cache),
        head_base_(0x1000'0000),
        prev_base_(head_base_ + (std::uint64_t{2} << hash_bits)),
        window_base_(prev_base_ + (std::uint64_t{2} << window_bits)) {}

  void on_access(core::MemRegion region, std::uint64_t index) override {
    std::uint64_t addr = 0;
    switch (region) {
      case core::MemRegion::kWindow:
        addr = window_base_ + index;
        break;
      case core::MemRegion::kHead:
        addr = head_base_ + 2 * index;
        break;
      case core::MemRegion::kPrev:
        addr = prev_base_ + 2 * index;
        break;
    }
    ++accesses_;
    (void)cache_->access(addr);
  }

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

 private:
  CacheSim* cache_;
  std::uint64_t head_base_, prev_base_, window_base_;
  std::uint64_t accesses_ = 0;
};

}  // namespace

CacheTimedResult cache_timed_encode(std::span<const std::uint8_t> data, unsigned window_bits,
                                    unsigned hash_bits, int level, CacheCostParams params) {
  core::MatchParams mp;
  mp.window_bits = window_bits;
  mp.hash.bits = hash_bits;
  mp = mp.with_level(level);

  CacheSim cache;
  TraceAdapter adapter(cache, window_bits, hash_bits);
  core::MatchFinderEncoder enc(mp);
  enc.set_access_observer(&adapter);
  const auto tokens = enc.encode(data);
  enc.set_access_observer(nullptr);

  CacheTimedResult r;
  r.trace.accesses = adapter.accesses();
  r.trace.hits = cache.hits();
  r.trace.misses = cache.misses();
  r.trace.miss_rate = cache.miss_rate();
  r.cycles = params.hit_cycles * static_cast<double>(cache.hits()) +
             params.miss_cycles * static_cast<double>(cache.misses()) +
             params.core_cycles_per_byte * static_cast<double>(data.size()) +
             params.core_cycles_per_token * static_cast<double>(tokens.size());
  const double seconds = r.cycles / (params.clock_mhz * 1e6);
  r.mb_per_s = seconds == 0.0 ? 0.0 : static_cast<double>(data.size()) / 1e6 / seconds;
  return r;
}

}  // namespace lzss::swm
