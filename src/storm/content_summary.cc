#include "storm/content_summary.h"

#include <algorithm>

#include "util/hash.h"
#include "util/strings.h"

namespace bestpeer::storm {

namespace {

/// Double hashing: bit_i = (h1 + i*h2) mod nbits, h2 forced odd so the
/// probe sequence covers the table.
void BloomBits(std::string_view keyword, size_t num_hashes, size_t nbits,
               const std::function<bool(size_t)>& visit) {
  uint64_t h1 = Fnv1a64(keyword);
  uint64_t h2 = Mix64(h1) | 1;
  for (size_t i = 0; i < num_hashes; ++i) {
    if (!visit((h1 + i * h2) % nbits)) return;
  }
}

}  // namespace

ContentSummary ContentSummary::Build(const KeywordIndex& index,
                                     uint64_t epoch,
                                     const BuildOptions& options) {
  ContentSummary summary;
  summary.epoch_ = epoch;
  summary.keyword_count_ = index.keyword_count();
  summary.num_hashes_ = static_cast<uint8_t>(
      std::clamp<size_t>(options.num_hashes, 1, kMaxHashes));
  size_t nbits = std::max<size_t>(64, summary.keyword_count_ *
                                          std::max<size_t>(1, options.bits_per_key));
  nbits = (nbits + 63) / 64 * 64;
  nbits = std::min(nbits, kMaxFilterWords * 64);
  summary.bits_.assign(nbits / 64, 0);

  std::vector<TopKeyword> top;
  index.ForEachKeyword([&](std::string_view keyword, size_t count) {
    BloomBits(keyword, summary.num_hashes_, nbits, [&](size_t bit) {
      summary.bits_[bit / 64] |= uint64_t{1} << (bit % 64);
      return true;
    });
    top.push_back({std::string(keyword), count});
  });
  size_t keep = std::min(options.top_k, std::min(kMaxTopKeywords, top.size()));
  std::partial_sort(top.begin(), top.begin() + static_cast<ptrdiff_t>(keep),
                    top.end(), [](const auto& a, const auto& b) {
                      if (a.count != b.count) return a.count > b.count;
                      return a.keyword < b.keyword;
                    });
  top.resize(keep);
  summary.top_keywords_ = std::move(top);
  return summary;
}

bool ContentSummary::MayContain(std::string_view keyword) const {
  if (keyword_count_ == 0 || bits_.empty()) return false;
  std::string folded = ToLower(keyword);
  size_t nbits = bits_.size() * 64;
  bool present = true;
  BloomBits(folded, num_hashes_, nbits, [&](size_t bit) {
    if ((bits_[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) {
      present = false;
      return false;
    }
    return true;
  });
  return present;
}

bool ContentSummary::MayMatch(const QueryExpr& query) const {
  for (const auto& branch : query.dnf()) {
    bool branch_possible = true;
    for (const auto& term : branch) {
      if (!MayContain(term)) {
        branch_possible = false;
        break;
      }
    }
    if (branch_possible && !branch.empty()) return true;
  }
  return false;
}

Status ContentSummary::Check() const {
  if (num_hashes_ < 1 || num_hashes_ > kMaxHashes) {
    return Status::Corruption("summary hash count out of range");
  }
  if (bits_.empty()) return Status::Corruption("summary filter is empty");
  return Status::OK();
}

}  // namespace bestpeer::storm
