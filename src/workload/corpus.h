#ifndef BESTPEER_WORKLOAD_CORPUS_H_
#define BESTPEER_WORKLOAD_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace bestpeer::workload {

/// Synthetic data generator for the experiments of §4.2: each node stores
/// 1000 objects of 1 KB; keywords are drawn from a Zipf-skewed synthetic
/// vocabulary. The query keyword is a reserved token ("needle") that only
/// designated matching objects contain, so experiments control exactly
/// which nodes answer and with how many objects.
struct CorpusOptions {
  size_t object_size = 1024;
  size_t vocabulary = 500;
  double zipf_skew = 0.8;
};

class CorpusGenerator {
 public:
  /// The reserved query keyword.
  static constexpr const char* kNeedle = "needle";

  CorpusGenerator(const CorpusOptions& options, uint64_t seed);

  /// Generates one object's text content. When `match` is true the
  /// content contains kNeedle as a whole token; otherwise it is
  /// guaranteed not to. Content is padded/truncated to object_size.
  Bytes MakeObject(bool match);

  /// Like MakeObject(match), but matching objects lead with all of
  /// `tokens` instead of the single needle, so one object answers every
  /// query in a pooled-keyword workload when object_size is at least
  /// PoolBytes(tokens.size()). The non-match path draws the same words
  /// as MakeObject(false).
  Bytes MakeObject(bool match, const std::vector<std::string>& tokens);

  /// The pooled keywords "needle0".."needle<count-1>" of a Zipf-repeat
  /// workload, for MakeObject(match, tokens).
  static std::vector<std::string> PoolTokens(size_t count);

  /// The bytes PoolTokens(count) take at the head of a matching object:
  /// every token plus one separator between neighbours (889 for 100).
  /// A smaller object_size cuts the tail of the pool off, and those
  /// keywords can never match.
  static size_t PoolBytes(size_t count);

  /// Generates a shareable text-file name ("w42-w17-doc3.txt"); matching
  /// names contain kNeedle.
  std::string MakeFileName(bool match, size_t serial);

  /// A random (non-needle) vocabulary word.
  std::string RandomWord();

  const CorpusOptions& options() const { return options_; }

 private:
  /// MakeObject copies words in whole chunks of this many bytes.
  static constexpr size_t kChunk = 8;

  /// Rank `rank`'s vocabulary word followed by one space.
  std::string_view Word(size_t rank) const {
    return std::string_view(words_.data() + word_start_[rank],
                            word_start_[rank + 1] - word_start_[rank]);
  }

  CorpusOptions options_;
  Rng rng_;
  ZipfSampler zipf_;
  /// "w0 w1 w2 ... w<vocabulary-1> ", every word rendered once, then
  /// kChunk zero bytes so a chunk read at any word stays in the table.
  std::string words_;
  /// Word(r) is words_[word_start_[r], word_start_[r + 1]).
  std::vector<uint32_t> word_start_;
  /// The longest Word(r).
  size_t max_word_ = 0;
};

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_CORPUS_H_
