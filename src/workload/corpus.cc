#include "workload/corpus.h"

#include <algorithm>
#include <cstring>

namespace bestpeer::workload {

namespace {

// Copies as much of `text` as fits below `limit` to dst + *pos.
void Put(uint8_t* dst, size_t limit, size_t* pos, std::string_view text) {
  const size_t n = std::min(text.size(), limit - *pos);
  std::memcpy(dst + *pos, text.data(), n);
  *pos += n;
}

}  // namespace

CorpusGenerator::CorpusGenerator(const CorpusOptions& options, uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.vocabulary, options.zipf_skew) {
  word_start_.reserve(options.vocabulary + 1);
  for (size_t rank = 0; rank < options.vocabulary; ++rank) {
    word_start_.push_back(static_cast<uint32_t>(words_.size()));
    words_ += 'w';
    words_ += std::to_string(rank);
    words_ += ' ';
    max_word_ = std::max(max_word_, words_.size() - word_start_.back());
  }
  word_start_.push_back(static_cast<uint32_t>(words_.size()));
  words_.append(kChunk, '\0');
}

std::string CorpusGenerator::RandomWord() {
  const std::string_view word = Word(zipf_.Sample(rng_));
  return std::string(word.substr(0, word.size() - 1));
}

Bytes CorpusGenerator::MakeObject(bool match) {
  static const std::vector<std::string> kLead = {kNeedle};
  return MakeObject(match, kLead);
}

Bytes CorpusGenerator::MakeObject(bool match,
                                  const std::vector<std::string>& tokens) {
  const size_t size = options_.object_size;
  // A word goes in whole chunks, which may run past it, and past `size`,
  // by up to kChunk - 1 bytes: the slack keeps every chunk inside `out`,
  // and the resize below trims it off.
  Bytes out(size + max_word_ + kChunk);
  uint8_t* const dst = out.data();
  size_t pos = 0;
  if (match) {
    for (const std::string& token : tokens) {
      Put(dst, size, &pos, token);
      Put(dst, size, &pos, " ");
    }
  }
  while (pos < size) {
    const std::string_view word = Word(zipf_.Sample(rng_));
    for (size_t k = 0; k < word.size(); k += kChunk) {
      std::memcpy(dst + pos + k, word.data() + k, kChunk);
    }
    pos += word.size();
  }
  // The last word may be cut off; fragments of vocabulary words never
  // equal a needle token.
  out.resize(size);
  return out;
}

std::vector<std::string> CorpusGenerator::PoolTokens(size_t count) {
  std::vector<std::string> tokens;
  tokens.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tokens.push_back(std::string(kNeedle) + std::to_string(i));
  }
  return tokens;
}

size_t CorpusGenerator::PoolBytes(size_t count) {
  size_t bytes = 0;
  for (const std::string& token : PoolTokens(count)) bytes += token.size() + 1;
  return count == 0 ? 0 : bytes - 1;
}

std::string CorpusGenerator::MakeFileName(bool match, size_t serial) {
  // The word after the first '-' is drawn before the one ahead of it:
  // the order every committed Gnutella figure was generated in.
  const std::string second = RandomWord();
  std::string name = match ? std::string(kNeedle) : RandomWord();
  name += '-';
  name += second;
  name += '-';
  name += std::to_string(serial);
  name += ".txt";
  return name;
}

}  // namespace bestpeer::workload
