#ifndef BESTPEER_STORM_CONTENT_SUMMARY_H_
#define BESTPEER_STORM_CONTENT_SUMMARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storm/keyword_index.h"
#include "storm/query_expr.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::storm {

/// Compact digest of one peer's indexed content: a Bloom filter over the
/// keyword vocabulary plus the top keywords by posting count. Peers
/// exchange summaries at connect/reconfiguration time so a base node can
/// skip direct peers whose summary provably excludes every DNF branch of
/// a query. Bloom filters have no false negatives, so a skip is always
/// safe: the peer definitely holds no match for any excluded branch.
class ContentSummary {
 public:
  struct BuildOptions {
    /// Bloom bits budget per distinct keyword (10 bits/key + 6 hashes
    /// gives ~1% false positives).
    size_t bits_per_key = 10;
    size_t num_hashes = 6;
    /// How many of the most frequent keywords to carry verbatim.
    size_t top_k = 8;
  };

  /// One of the most frequent keywords and its posting count.
  struct TopKeyword {
    std::string keyword;
    uint64_t count = 0;

    bool operator==(const TopKeyword&) const = default;
    static Status Wire(auto& m, auto& io) {
      return io(m.keyword, wire::Varint(m.count));
    }
  };

  /// Decoder caps; encodings exceeding them are rejected as corrupt.
  static constexpr size_t kMaxHashes = 16;
  static constexpr size_t kMaxFilterWords = 1 << 16;
  static constexpr size_t kMaxTopKeywords = 64;

  ContentSummary() = default;

  /// Digests `index` at index epoch `epoch` (mutation epoch + 1, the
  /// same token the result-cache plane stamps on answers).
  static ContentSummary Build(const KeywordIndex& index, uint64_t epoch,
                              const BuildOptions& options);
  static ContentSummary Build(const KeywordIndex& index, uint64_t epoch) {
    return Build(index, epoch, BuildOptions());
  }

  /// True iff the summarized store may contain `keyword`. False means
  /// definitely absent. An empty summary contains nothing.
  bool MayContain(std::string_view keyword) const;

  /// True iff some DNF branch of `query` has every term possibly
  /// present. False means the peer provably matches nothing.
  bool MayMatch(const QueryExpr& query) const;

  /// Wire codec (util/wire.h; every truncation of a valid encoding fails
  /// to decode).
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ContentSummary> Decode(const Bytes& payload) {
    return wire::Decode<ContentSummary>(payload);
  }

  static Status Wire(auto& m, auto& io) {
    return io(wire::Varint(m.epoch_), wire::Varint(m.keyword_count_),
              m.num_hashes_, wire::Max(m.bits_, kMaxFilterWords),
              wire::Max(m.top_keywords_, kMaxTopKeywords));
  }
  /// The hash count lies in [1, kMaxHashes] and the filter is not empty.
  Status Check() const;

  uint64_t epoch() const { return epoch_; }
  uint64_t keyword_count() const { return keyword_count_; }
  size_t filter_bits() const { return bits_.size() * 64; }
  const std::vector<TopKeyword>& top_keywords() const { return top_keywords_; }

 private:
  uint64_t epoch_ = 0;
  /// Distinct keywords the filter was built over (0 = empty store).
  uint64_t keyword_count_ = 0;
  uint8_t num_hashes_ = 6;
  /// Bloom filter bit array, 64 bits per word.
  std::vector<uint64_t> bits_;
  /// The most frequent keywords, most frequent first.
  std::vector<TopKeyword> top_keywords_;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_CONTENT_SUMMARY_H_
