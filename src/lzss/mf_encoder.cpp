#include "lzss/mf_encoder.hpp"

#include <algorithm>

namespace lzss::core {
namespace {

// zlib's TOO_FAR: a minimal match this distant is not worth taking.
constexpr std::uint32_t kTooFar = 4096;

}  // namespace

MatchFinderEncoder::MatchFinderEncoder(MatchParams params)
    : params_(params), finder_(make_match_finder(params.finder, params)) {}

std::vector<Token> MatchFinderEncoder::encode(std::span<const std::uint8_t> input) {
  finder_->seed(input);
  std::vector<Token> out;
  out.reserve(input.size() / 3 + 16);
  if (params_.strategy == Strategy::kFast) {
    encode_fast(input, out);
  } else {
    encode_slow(input, out);
  }
  return out;
}

void MatchFinderEncoder::encode_fast(std::span<const std::uint8_t> in, std::vector<Token>& out) {
  std::uint64_t pos = 0;
  while (pos < in.size()) {
    MatchCandidate m{};
    if (pos + kMinMatch <= in.size()) {
      m = finder_->find_longest_match(pos, kMinMatch - 1);
    }
    if (m.length >= kMinMatch) {
      out.push_back(Token::match(m.distance, m.length));
      finder_->advance(pos, m.length);
      pos += m.length;
    } else {
      out.push_back(Token::literal(in[pos]));
      ++pos;
    }
  }
}

void MatchFinderEncoder::encode_slow(std::span<const std::uint8_t> in, std::vector<Token>& out) {
  std::uint64_t pos = 0;
  bool match_available = false;  // a literal at pos-1 is pending
  MatchCandidate prev{};         // match found at pos-1

  while (pos < in.size()) {
    // zlib searches at pos only while the match at pos-1 is short; either
    // way it indexes pos, which advance() below does when no search ran.
    const bool search = pos + kMinMatch <= in.size() && prev.length < params_.max_lazy;
    MatchCandidate cur{};
    if (search) {
      cur = finder_->find_longest_match(pos, std::max(prev.length, kMinMatch - 1));
      // zlib: drop a minimal match that is too far away to be worth 2 extra bits.
      if (cur.length == kMinMatch && cur.distance > kTooFar) cur = {};
    }

    if (prev.length >= kMinMatch && cur.length <= prev.length) {
      // The match at pos-1 wins; emit it and skip over it. The finder
      // indexes the covered positions up to stop-1; position stop is
      // indexed by the search at the top of the next iteration.
      out.push_back(Token::match(prev.distance, prev.length));
      const std::uint64_t stop = pos - 1 + prev.length;
      const std::uint64_t searched = search ? pos : pos - 1;
      finder_->advance(searched, static_cast<std::uint32_t>(stop - searched));
      pos = stop;
      prev = {};
      match_available = false;
    } else {
      if (match_available) out.push_back(Token::literal(in[pos - 1]));
      match_available = true;
      prev = cur;
      ++pos;
    }
  }
  if (match_available) out.push_back(Token::literal(in[in.size() - 1]));
}

}  // namespace lzss::core
