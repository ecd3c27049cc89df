#include "hw/compressor.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/byte_order.hpp"

namespace lzss::hw {

using bram::Port;

namespace {

HwConfig validated(HwConfig config) {
  config.validate();
  return config;
}

}  // namespace

Compressor::Compressor(HwConfig config)
    : cfg_(validated(config)),
      n_(cfg_.dict_size()),
      n_mask_(n_ - 1),
      la_mask_(cfg_.lookahead_bytes - 1),
      pos_mask_(cfg_.position_modulus() - 1),
      max_dist_(cfg_.max_distance()),
      fill_ahead_(cfg_.fill_ahead()),
      lookahead_("lookahead", cfg_.lookahead_bytes / 4, 32),
      dict_("dictionary", n_ / 4, 32),
      hash_cache_("hash_cache", cfg_.lookahead_bytes, cfg_.hash.bits),
      head_("head", cfg_.hash.table_size(), cfg_.position_bits()),
      next_("next", n_, cfg_.dict_bits),
      la_ring_(cfg_.lookahead_bytes + kRingPad, 0),
      dict_ring_(n_ + kRingPad, 0) {
  reset();
}

void Compressor::reset() {
  for (bram::DualPortRam* ram : {&lookahead_, &dict_, &hash_cache_, &head_, &next_}) ram->reset();
  std::fill(la_ring_.begin(), la_ring_.end(), 0);
  std::fill(dict_ring_.begin(), dict_ring_.end(), 0);
  in_ = {};
  fill_pos_ = 0;
  pos_ = 0;
  state_ = State::kWaitData;
  prefetch_valid_ = false;
  best_len_ = best_dist_ = 0;
  chain_left_ = 0;
  succ_valid_ = false;
  ins_pos_ = ins_end_ = 0;
  next_rotation_ = cfg_.rotation_interval();
  rotate_left_ = 0;
  tokens_.clear();
  stats_ = CycleStats{};
}

void Compressor::set_input(std::span<const std::uint8_t> input) {
  in_ = input;
  stats_.bytes_in = input.size();
  if (input.empty()) state_ = State::kDone;
}

CompressResult Compressor::compress(std::span<const std::uint8_t> input) {
  reset();
  set_input(input);
  // Generous runaway guard: even a 1-byte bus with a deep chain stays far
  // below this; exceeding it means the model wedged.
  const std::uint64_t guard =
      static_cast<std::uint64_t>(input.size()) * (cfg_.max_chain + 8) * 8 + 1'000'000;
  while (!done()) {
    step();
    if (stats_.total_cycles > guard)
      throw std::runtime_error("hw::Compressor: cycle guard exceeded (model wedged)");
  }
  return {tokens_, stats_};
}

CompressResult Compressor::compress_words(std::span<const std::uint32_t> words,
                                          std::size_t byte_count, stream::ByteOrder order) {
  if (byte_count > words.size() * 4)
    throw std::invalid_argument("compress_words: byte_count exceeds the word payload");
  word_input_ = stream::unpack_words(words, byte_count, order);
  // reset() inside compress() clears in_ but must not free word_input_;
  // compress() re-points in_ at it afterwards.
  auto result = compress(word_input_);
  return result;
}

void Compressor::emit(const core::Token& t) {
  if (out_channel_ != nullptr) {
    out_channel_->push(t);
  } else {
    tokens_.push_back(t);
  }
}

void Compressor::filler_step() {
  // One 32-bit beat per cycle, bounded by the word boundary, the remaining
  // input and the fill-ahead window.
  const std::uint64_t end = std::min((fill_pos_ | 3) + 1, fill_limit());
  for (std::uint64_t p = fill_pos_; p < end; ++p) {
    const std::uint64_t la = p & la_mask_;
    const std::uint64_t di = p & n_mask_;
    la_ring_[la] = in_[p];
    dict_ring_[di] = in_[p];
    if (la < kRingPad) la_ring_[la + la_mask_ + 1] = in_[p];
    if (di < kRingPad) dict_ring_[di + n_] = in_[p];
  }
  // The 3-byte hash of position p-2 is complete once byte p arrives. In
  // hardware several hash-cache entries share one wide BRAM word, so the
  // cache keeps up with the 4-bytes/cycle fill; modelled as backdoor writes.
  for (std::uint64_t hp = std::max<std::uint64_t>(fill_pos_, 2) - 2; hp + 2 < end; ++hp)
    hash_cache_.poke(hp & la_mask_, cfg_.hash.hash3(in_[hp], in_[hp + 1], in_[hp + 2]));
  // The beat itself: one port-B write on each ring. The lanes it does not
  // fill keep the lookahead ring's older bytes.
  const std::uint32_t word = get_le32(&la_ring_[fill_pos_ & la_mask_ & ~std::uint64_t{3}]);
  lookahead_.write(Port::B, (fill_pos_ & la_mask_) / 4, word);
  dict_.write(Port::B, (fill_pos_ & n_mask_) / 4, word);
  fill_pos_ = end;
}

void Compressor::chain_insert(std::uint64_t p, std::uint32_t h) {
  const std::uint32_t old =
      head_.exchange(Port::A, h, static_cast<std::uint32_t>(p & pos_mask_));
  const std::uint64_t age = entry_age(p, old);
  const std::uint32_t rel = (age >= 1 && age < n_) ? static_cast<std::uint32_t>(age) : 0;
  next_.write(Port::B, p & n_mask_, rel);
}

void Compressor::begin_candidate(std::uint64_t cand_abs) {
  cand_ = cand_abs;
  cand_len_ = 0;
  cand_max_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(core::kMaxMatch, occupancy()));
  cand_first_cycle_ = true;
  succ_valid_ = false;
  ++stats_.chain_probes;
}

void Compressor::start_rotation() {
  rotate_left_ = cfg_.rotation_pass_cycles();
  ++stats_.rotation_passes;
  purge_head();
  next_rotation_ += cfg_.rotation_interval();
  ins_pos_ = ins_end_ = 0;  // pending short-match insertions are dropped
  state_ = State::kRotate;
}

void Compressor::purge_head() {
  // Functional effect of the rotation pass: every head entry whose age
  // exceeds the usable window is zeroed, so no entry can survive long enough
  // to alias as fresh in the 2^(dict_bits+G) position space.
  head_.backdoor_update(
      [this](std::uint32_t e) { return entry_age(pos_, e) > max_dist_ ? 0u : e; });
}

void Compressor::enter_prep_or_wait_after_advance(std::uint32_t advance) {
  if (pos_ >= in_.size()) {
    state_ = State::kDone;
    return;
  }
  if (pos_ >= next_rotation_) {
    start_rotation();
    return;
  }
  if (ins_pos_ < ins_end_) {
    state_ = State::kHashUpdate;
    return;
  }
  // Hash prefetch: after a 1-byte advance the prefetched hash for the new
  // front is already on the head-table address bus; skip WaitData.
  if (advance == 1 && cfg_.hash_prefetch && fill_pos_ >= pos_ + 3 &&
      occupancy() >= wait_threshold()) {
    prefetch_valid_ = true;
    ++stats_.prefetch_hits;
    state_ = State::kMatchPrep;
    return;
  }
  prefetch_valid_ = false;
  state_ = State::kWaitData;
}

void Compressor::fsm_step() {
  switch (state_) {
    case State::kWaitData: {
      if (pos_ >= in_.size()) {
        state_ = State::kDone;
        return;
      }
      const bool hash_ready = fill_pos_ >= pos_ + 3 || fill_pos_ >= in_.size();
      if (occupancy() >= wait_threshold() && hash_ready) {
        ++stats_.waiting;
        state_ = State::kMatchPrep;
      } else if (fill_pos_ < in_.size()) {
        ++stats_.fetching;  // background filler has not caught up yet
      } else {
        ++stats_.waiting;
      }
      return;
    }

    case State::kMatchPrep: {
      ++stats_.matching;
      best_len_ = 0;
      best_dist_ = 0;
      if (occupancy() < core::kMinMatch) {
        // Tail of the stream: no 3-byte hash, plain literal path.
        prefetch_valid_ = false;
        state_ = State::kOutput;
        return;
      }
      cur_hash_ = prefetch_valid_ ? hash_cache_.peek(pos_ & la_mask_)
                                  : hash_cache_.read(Port::A, pos_ & la_mask_);
      prefetch_valid_ = false;

      const std::uint32_t head_old =
          head_.exchange(Port::A, cur_hash_, static_cast<std::uint32_t>(pos_ & pos_mask_));
      const std::uint64_t age = entry_age(pos_, head_old);
      const std::uint32_t rel = (age >= 1 && age < n_) ? static_cast<std::uint32_t>(age) : 0;
      next_.write(Port::B, pos_ & n_mask_, rel);

      if (age >= 1 && age <= max_dist_) {
        chain_left_ = cfg_.max_chain;
        begin_candidate(pos_ - age);
        state_ = State::kMatching;
      } else {
        state_ = State::kOutput;
      }
      return;
    }

    case State::kMatching: {
      ++stats_.matching;
      std::uint32_t chunk;
      if (cand_first_cycle_) {
        // Overlapped next-table read: fetch the successor candidate while
        // the first comparer iteration runs.
        const std::uint32_t rel =
            static_cast<std::uint32_t>(next_.read(Port::A, cand_ & n_mask_));
        succ_valid_ = false;
        if (rel != 0) {
          const std::uint64_t prev = cand_ - rel;
          if (pos_ - prev <= max_dist_) {
            succ_ = prev;
            succ_valid_ = true;
          }
        }
        // First iteration is limited by the dictionary word alignment.
        chunk = cfg_.bus_width_bytes == 1
                    ? 1
                    : cfg_.bus_width_bytes -
                          static_cast<std::uint32_t>(cand_ & (cfg_.bus_width_bytes - 1));
        cand_first_cycle_ = false;
      } else {
        chunk = cfg_.bus_width_bytes;
      }
      (void)dict_.read(Port::A, ((cand_ + cand_len_) & n_mask_) / 4);
      (void)lookahead_.read(Port::A, ((pos_ + cand_len_) & la_mask_) / 4);

      // The comparer checks up to `width` byte pairs; the bytes it loads
      // past the candidate's cap are not compared. A mismatching pair counts
      // as compared.
      const std::uint32_t width = std::min(chunk, cand_max_ - cand_len_);
      const std::uint32_t diff = get_le32(&dict_ring_[(cand_ + cand_len_) & n_mask_]) ^
                                 get_le32(&la_ring_[(pos_ + cand_len_) & la_mask_]);
      const std::uint32_t equal =
          diff == 0 ? 4 : static_cast<std::uint32_t>(std::countr_zero(diff)) / 8;
      const bool mismatch = equal < width;
      cand_len_ += mismatch ? equal : width;
      stats_.compare_bytes += mismatch ? equal + 1 : width;

      if (mismatch || cand_len_ >= cand_max_) {
        if (cand_len_ >= core::kMinMatch && cand_len_ > best_len_) {
          best_len_ = cand_len_;
          best_dist_ = static_cast<std::uint32_t>(pos_ - cand_);
        }
        --chain_left_;
        if (best_len_ >= cfg_.nice_length || chain_left_ == 0 || !succ_valid_) {
          state_ = State::kOutput;
        } else {
          begin_candidate(succ_);
        }
      }
      return;
    }

    case State::kOutput: {
      if (out_channel_ != nullptr && !out_channel_->can_push()) {
        ++stats_.output;
        ++stats_.output_stall_cycles;  // sink requested a delay; FSM stalls
        return;
      }
      ++stats_.output;
      std::uint32_t advance;
      if (best_len_ >= core::kMinMatch) {
        emit(core::Token::match(best_dist_, best_len_));
        ++stats_.matches;
        stats_.match_bytes += best_len_;
        advance = best_len_;
        if (best_len_ <= cfg_.max_insert) {
          ins_pos_ = pos_ + 1;
          ins_end_ = pos_ + best_len_;
        } else {
          ins_pos_ = ins_end_ = 0;
        }
      } else {
        emit(core::Token::literal(stream_byte(pos_)));
        ++stats_.literals;
        advance = 1;
        ins_pos_ = ins_end_ = 0;
      }
      pos_ += advance;
      enter_prep_or_wait_after_advance(advance);
      return;
    }

    case State::kHashUpdate: {
      ++stats_.updating;
      const std::uint64_t k = ins_pos_++;
      if (k + core::kMinMatch <= in_.size() && k + core::kMinMatch <= fill_pos_) {
        (void)hash_cache_.read(Port::A, k & la_mask_);
        const std::uint32_t h =
            cfg_.hash.hash3(dict_ring_[k & n_mask_], dict_ring_[(k + 1) & n_mask_],
                            dict_ring_[(k + 2) & n_mask_]);
        chain_insert(k, h);
      }
      if (ins_pos_ >= ins_end_) {
        prefetch_valid_ = false;
        state_ = State::kWaitData;
      }
      return;
    }

    case State::kRotate: {
      ++stats_.rotating;
      if (--rotate_left_ == 0) {
        prefetch_valid_ = false;
        state_ = State::kWaitData;
      }
      return;
    }

    case State::kDone:
      return;
  }
}

void Compressor::tick_memories() {
  lookahead_.tick();
  dict_.tick();
  hash_cache_.tick();
  head_.tick();
  next_.tick();
}

Compressor::DebugView Compressor::debug_view() const noexcept {
  static constexpr const char* kNames[] = {"WaitData", "MatchPrep", "Matching", "Output",
                                           "HashUpdate", "Rotate", "Done"};
  const auto code = static_cast<unsigned>(state_);
  return DebugView{kNames[code], code,       pos_,     fill_pos_,
                   occupancy(),  best_len_,  chain_left_, cand_len_};
}

void Compressor::step() {
  if (state_ == State::kDone) return;
  if (fill_pos_ < fill_limit()) filler_step();
  fsm_step();
  tick_memories();
  ++stats_.total_cycles;
}

}  // namespace lzss::hw
