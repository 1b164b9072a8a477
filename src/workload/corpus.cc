#include "workload/corpus.h"

namespace bestpeer::workload {

CorpusGenerator::CorpusGenerator(const CorpusOptions& options, uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.vocabulary, options.zipf_skew) {}

std::string CorpusGenerator::RandomWord() {
  size_t rank = zipf_.Sample(rng_);
  return "w" + std::to_string(rank);
}

Bytes CorpusGenerator::MakeObject(bool match) {
  std::string text;
  text.reserve(options_.object_size + 16);
  if (match) {
    text += kNeedle;
    text += ' ';
  }
  while (text.size() < options_.object_size) {
    text += RandomWord();
    text += ' ';
  }
  text.resize(options_.object_size);
  // Truncation may leave a trailing fragment; that is fine — fragments of
  // vocabulary words never equal the needle token.
  return ToBytes(text);
}

Bytes CorpusGenerator::MakeObject(bool match,
                                  const std::vector<std::string>& tokens) {
  std::string text;
  text.reserve(options_.object_size + 16);
  if (match) {
    for (const std::string& token : tokens) {
      text += token;
      text += ' ';
    }
  }
  while (text.size() < options_.object_size) {
    text += RandomWord();
    text += ' ';
  }
  text.resize(options_.object_size);
  return ToBytes(text);
}

std::vector<std::string> CorpusGenerator::PoolTokens(size_t count) {
  std::vector<std::string> tokens;
  tokens.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tokens.push_back(std::string(kNeedle) + std::to_string(i));
  }
  return tokens;
}

std::string CorpusGenerator::MakeFileName(bool match, size_t serial) {
  std::string name;
  if (match) {
    name = std::string(kNeedle) + "-" + RandomWord() + "-" +
           std::to_string(serial) + ".txt";
  } else {
    name = RandomWord() + "-" + RandomWord() + "-" +
           std::to_string(serial) + ".txt";
  }
  return name;
}

}  // namespace bestpeer::workload
