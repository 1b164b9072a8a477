#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "storm/keyword_index.h"
#include "storm/storm.h"
#include "util/rng.h"

namespace bestpeer::storm {
namespace {

Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------ KeywordIndex

TEST(KeywordIndexTest, PostingListsStaySorted) {
  KeywordIndex index;
  for (ObjectId id : {9, 3, 7, 1, 5}) index.Add(id, "alpha");
  const std::vector<ObjectId>* postings = index.Postings("alpha");
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(*postings, (std::vector<ObjectId>{1, 3, 5, 7, 9}));
  EXPECT_EQ(index.Postings("ghost"), nullptr);
  EXPECT_EQ(index.document_count(), 5u);
}

TEST(KeywordIndexTest, RemoveByIdDropsEveryPosting) {
  KeywordIndex index;
  index.Add(1, "alpha beta gamma");
  index.Add(2, "alpha");
  index.Remove(1);
  EXPECT_EQ(index.PostingCount("alpha"), 1u);
  EXPECT_EQ(index.PostingCount("beta"), 0u);
  EXPECT_EQ(index.PostingCount("gamma"), 0u);
  EXPECT_EQ(index.keyword_count(), 1u);
  EXPECT_EQ(index.document_count(), 1u);
  index.Remove(42);  // Unknown id: no-op.
  EXPECT_EQ(index.PostingCount("alpha"), 1u);
}

TEST(KeywordIndexTest, ReAddReplacesOldTokens) {
  // The historical leak: Remove(id, new_text) left tokens of the *old*
  // text indexed forever. The index now records its own token sets, so
  // re-adding with changed content fully replaces the old postings.
  KeywordIndex index;
  index.Add(1, "alpha beta");
  index.Add(1, "gamma delta");
  EXPECT_EQ(index.PostingCount("alpha"), 0u);
  EXPECT_EQ(index.PostingCount("beta"), 0u);
  EXPECT_EQ(index.PostingCount("gamma"), 1u);
  EXPECT_EQ(index.PostingCount("delta"), 1u);
  index.Remove(1);
  EXPECT_EQ(index.keyword_count(), 0u);
  EXPECT_EQ(index.document_count(), 0u);
}

TEST(KeywordIndexTest, IntersectGallops) {
  std::vector<ObjectId> small = {5, 500, 900};
  std::vector<ObjectId> large;
  for (ObjectId id = 0; id < 1000; ++id) large.push_back(id);
  std::vector<ObjectId> out;
  size_t probes = 0;
  KeywordIndex::Intersect(small, large, &out, &probes);
  EXPECT_EQ(out, small);
  EXPECT_GT(probes, 0u);
  // Galloping touches O(|small| * log |large|) postings, far fewer than
  // a full walk of the larger list.
  EXPECT_LT(probes, large.size() / 2);

  // Argument order must not matter.
  std::vector<ObjectId> swapped;
  KeywordIndex::Intersect(large, small, &swapped, nullptr);
  EXPECT_EQ(swapped, small);

  // Disjoint and empty edge cases.
  KeywordIndex::Intersect({1, 3}, {2, 4}, &out, nullptr);
  EXPECT_TRUE(out.empty());
  KeywordIndex::Intersect({}, large, &out, nullptr);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------------- IndexSearch

TEST(IndexSearchTest, CountsPostingsTouched) {
  StormOptions options;  // build_index defaults to true.
  auto storm = Storm::Open(options).value();
  for (ObjectId id = 0; id < 100; ++id) {
    std::string text = (id % 10 == 0) ? "needle common" : "common filler";
    ASSERT_TRUE(storm->Put(id, Content(text)).ok());
  }
  size_t touched = 0;
  auto matches = storm->IndexSearch("needle common", &touched);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 10u);
  EXPECT_GT(touched, 0u);
  // Smallest-first: the 10-posting "needle" list anchors the gallop into
  // the 100-posting "common" list; nowhere near a 100-object scan.
  EXPECT_LT(touched, 100u);

  // A query with an unindexed term touches nothing at all.
  size_t ghost_touched = 77;
  auto ghost = storm->IndexSearch("ghost common", &ghost_touched);
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(ghost->empty());
  EXPECT_EQ(ghost_touched, 0u);
}

TEST(IndexSearchTest, DisabledIndexFailsPrecondition) {
  StormOptions options;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle")).ok());
  EXPECT_TRUE(storm->IndexSearch("needle").status().IsFailedPrecondition());
}

// Randomized equivalence property: for random stores, mutations and DNF
// queries, IndexSearch match sets equal ScanSearch match sets at every
// epoch. This is the contract that lets the agent path switch between
// the two without changing answers.
TEST(IndexSearchTest, EquivalentToScanAcrossRandomMutations) {
  // The last three are not single tokens (separator bytes, UTF-8), so
  // neither path may match them.
  const std::vector<std::string> vocab = {
      "alpha", "beta",  "gamma", "delta", "omega",
      "sigma", "kappa", "zeta",  "c++",   "state-of-the-art",
      "caf\xC3\xA9"};
  Rng rng(20260807);
  auto storm = Storm::Open({}).value();

  auto random_text = [&]() {
    std::string text;
    const size_t words = 1 + rng.NextBounded(5);
    for (size_t w = 0; w < words; ++w) {
      if (!text.empty()) text += ' ';
      text += vocab[rng.NextBounded(vocab.size())];
    }
    return text;
  };
  auto random_query = [&]() {
    std::string query;
    const size_t branches = 1 + rng.NextBounded(3);
    for (size_t b = 0; b < branches; ++b) {
      if (!query.empty()) query += " OR ";
      const size_t terms = 1 + rng.NextBounded(3);
      for (size_t t = 0; t < terms; ++t) {
        if (t > 0) query += ' ';
        // Occasionally pick a word no object can contain.
        query += rng.NextBounded(8) == 0 ? "ghost"
                                         : vocab[rng.NextBounded(vocab.size())];
      }
    }
    return query;
  };

  std::set<ObjectId> live;
  for (size_t round = 0; round < 60; ++round) {
    // Random mutation: put / delete / update.
    const uint64_t kind = rng.NextBounded(3);
    if (kind == 0 || live.empty()) {
      ObjectId id = rng.NextBounded(40);
      if (live.count(id) == 0) {
        ASSERT_TRUE(storm->Put(id, Content(random_text())).ok());
        live.insert(id);
      } else {
        ASSERT_TRUE(storm->Update(id, Content(random_text())).ok());
      }
    } else if (kind == 1) {
      ObjectId id = *std::next(live.begin(),
                               static_cast<long>(rng.NextBounded(live.size())));
      ASSERT_TRUE(storm->Delete(id).ok());
      live.erase(id);
    } else {
      ObjectId id = *std::next(live.begin(),
                               static_cast<long>(rng.NextBounded(live.size())));
      ASSERT_TRUE(storm->Update(id, Content(random_text())).ok());
    }

    // At this epoch, several random DNF queries must agree exactly.
    for (size_t q = 0; q < 4; ++q) {
      const std::string query = random_query();
      auto scan = storm->ScanSearch(query);
      ASSERT_TRUE(scan.ok()) << query;
      auto indexed = storm->IndexSearch(query);
      ASSERT_TRUE(indexed.ok()) << query;
      std::vector<ObjectId> scan_sorted = scan->matches;
      std::sort(scan_sorted.begin(), scan_sorted.end());
      EXPECT_EQ(indexed.value(), scan_sorted)
          << "query \"" << query << "\" diverged at epoch "
          << storm->mutation_epoch();
    }
  }
}

}  // namespace
}  // namespace bestpeer::storm
