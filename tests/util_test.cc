#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "util/bytes.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"

namespace bestpeer {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoryCodesMatch) {
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::IoError("").IsIoError());
  EXPECT_TRUE(Status::Unimplemented("").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("").IsInternal());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Corruption("bad"); };
  auto wrapper = [&]() -> Status {
    BP_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsCorruption());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnBindsValue) {
  auto get = []() -> Result<int> { return 7; };
  auto use = [&]() -> Result<int> {
    BP_ASSIGN_OR_RETURN(int v, get());
    return v + 1;
  };
  auto r = use();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 8);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto get = []() -> Result<int> { return Status::IoError("disk"); };
  auto use = [&]() -> Result<int> {
    BP_ASSIGN_OR_RETURN(int v, get());
    return v;
  };
  EXPECT_TRUE(use().status().IsIoError());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,    1,        127,        128,
                            255,  16383,    16384,      (1ULL << 32),
                            ~0ULL};
  for (uint64_t v : cases) {
    BinaryWriter w;
    w.WriteVarint(v);
    BinaryReader r(w.buffer());
    auto back = r.ReadVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v) << v;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BytesTest, StringAndBlobRoundTrip) {
  BinaryWriter w;
  w.WriteString("hello world");
  w.WriteString("");
  w.WriteBytes(Bytes{1, 2, 3});
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "hello world");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadBytes().value(), (Bytes{1, 2, 3}));
}

TEST(BytesTest, TruncatedReadsFailGracefully) {
  BinaryWriter w;
  w.WriteU32(7);
  Bytes buf = w.Take();
  buf.resize(2);
  BinaryReader r(buf);
  auto v = r.ReadU32();
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsOutOfRange());
}

TEST(BytesTest, TruncatedStringFails) {
  BinaryWriter w;
  w.WriteString("a long enough string");
  Bytes buf = w.Take();
  buf.resize(buf.size() - 5);
  BinaryReader r(buf);
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BytesTest, MalformedVarintFails) {
  Bytes buf(11, 0xFF);  // 11 continuation bytes: varint too long.
  BinaryReader r(buf);
  EXPECT_TRUE(r.ReadVarint().status().IsCorruption());
}

// Property: any sequence of writes reads back identically.
class BytesPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<uint64_t> varints;
    std::vector<std::string> strings;
    BinaryWriter w;
    int ops = static_cast<int>(rng.NextBounded(20)) + 1;
    std::vector<int> kinds;
    for (int i = 0; i < ops; ++i) {
      if (rng.NextBool()) {
        uint64_t v = rng.NextU64() >> rng.NextBounded(64);
        varints.push_back(v);
        w.WriteVarint(v);
        kinds.push_back(0);
      } else {
        std::string s;
        size_t len = rng.NextBounded(64);
        for (size_t j = 0; j < len; ++j) {
          s += static_cast<char>('a' + rng.NextBounded(26));
        }
        strings.push_back(s);
        w.WriteString(s);
        kinds.push_back(1);
      }
    }
    BinaryReader r(w.buffer());
    size_t vi = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        ASSERT_EQ(r.ReadVarint().value(), varints[vi++]);
      } else {
        ASSERT_EQ(r.ReadString().value(), strings[si++]);
      }
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RngTest, ExponentialIsPositiveWithRoughMean) {
  Rng rng(21);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextExponential(10.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(31);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(rng)]++;
  EXPECT_GT(counts[0], counts[50] * 2);
  EXPECT_GT(counts[0], 0);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  Rng rng(37);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 2000, 350);
}

TEST(ZipfTest, GuideTableEqualsBinarySearch) {
  const std::pair<size_t, double> shapes[] = {
      {1, 0.8}, {10, 0.0}, {100, 1.0}, {300, 0.8}, {500, 0.8}, {1000, 4.0}};
  for (const auto& [n, s] : shapes) {
    ZipfSampler zipf(n, s);
    // The CDF and search of a plain binary-search sampler.
    std::vector<double> cdf(n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = sum;
    }
    for (auto& c : cdf) c /= sum;
    auto expected = [&cdf](double u) {
      auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      return it == cdf.end() ? cdf.size() - 1
                             : static_cast<size_t>(it - cdf.begin());
    };
    // Draws near every CDF value and every guide-cell edge, where a
    // rounding slip would show first, plus both ends of NextDouble().
    std::vector<double> probes = {0.0, 1.0 - 0x1.0p-53};
    for (double c : cdf) {
      probes.push_back(c);
      probes.push_back(std::nextafter(c, 0.0));
      probes.push_back(std::nextafter(c, 2.0));
    }
    const size_t cells = std::bit_ceil(4 * n);
    for (size_t k = 0; k < cells; ++k) {
      const double edge = static_cast<double>(k) / static_cast<double>(cells);
      probes.push_back(edge);
      probes.push_back(std::nextafter(edge, 0.0));
      probes.push_back(std::nextafter(edge, 2.0));
    }
    for (double u : probes) {
      if (u < 0.0 || u >= 1.0) continue;  // NextDouble() is in [0, 1).
      ASSERT_EQ(zipf.Rank(u), expected(u)) << "n=" << n << " s=" << s
                                           << " u=" << u;
    }
    Rng rng(n);
    for (int i = 0; i < 1000000; ++i) {
      const double u = rng.NextDouble();
      ASSERT_EQ(zipf.Rank(u), expected(u)) << "n=" << n << " s=" << s
                                           << " u=" << u;
    }
  }
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, Fnv1aKnownProperties) {
  EXPECT_EQ(Fnv1a64("", 0), 0xCBF29CE484222325ULL);
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
}

TEST(HashTest, Mix64Avalanches) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_EQ(Mix64(0), 0u);  // fmix64 fixes 0; callers must not rely on it.
  EXPECT_NE(Mix64(1), 1u);
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
}

TEST(StringsTest, Tokenize) {
  auto toks = TokenizeKeywords("Hello, World! 42-foo");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "hello");
  EXPECT_EQ(toks[1], "world");
  EXPECT_EQ(toks[2], "42");
  EXPECT_EQ(toks[3], "foo");
}

TEST(StringsTest, ContainsKeywordWholeTokenOnly) {
  EXPECT_TRUE(ContainsKeyword("the needle is here", "needle"));
  EXPECT_TRUE(ContainsKeyword("NEEDLE!", "needle"));
  EXPECT_TRUE(ContainsKeyword("a,needle,b", "Needle"));
  EXPECT_FALSE(ContainsKeyword("needles are different", "needle"));
  EXPECT_FALSE(ContainsKeyword("pineedle", "needle"));
  EXPECT_FALSE(ContainsKeyword("", "needle"));
  EXPECT_FALSE(ContainsKeyword("anything", ""));
  // A keyword with a separator byte is never a token.
  EXPECT_FALSE(ContainsKeyword("I like c++ a lot", "c++"));
  EXPECT_TRUE(ContainsKeyword("I like c++ a lot", "C"));
  EXPECT_FALSE(ContainsKeyword("state-of-the-art p2p", "state-of-the-art"));
  EXPECT_FALSE(ContainsKeyword("caf\xC3\xA9 au lait", "caf\xC3\xA9"));
  EXPECT_TRUE(ContainsKeyword("caf\xC3\xA9 au lait", "caf"));
}

// Property: the scan's matcher and the index's tokenizer agree, i.e.
// ContainsKeyword(t, k) == (ToLower(k) is one of TokenizeKeywords(t)),
// over texts and keywords of both cases, digits, punctuation, spaces and
// bytes >= 0x80, with keywords planted at the start, at the end and
// next to word characters.
TEST(StringsTest, ContainsKeywordIsTokenMembership) {
  const std::string word_bytes = "aAbBzZ09";
  const std::string all_bytes = word_bytes + " .,-+_\t\x7F\x80\xC3\xA9\xFF";
  Rng rng(20261017);
  auto draw = [&rng](const std::string& from, size_t min_len,
                     size_t max_len) {
    std::string s(min_len + rng.NextBounded(max_len - min_len + 1), ' ');
    for (char& c : s) c = from[rng.NextBounded(from.size())];
    return s;
  };
  auto random_case = [&rng](std::string s) {
    for (char& c : s) {
      const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      if (letter && rng.NextBool()) c = static_cast<char>(c ^ 0x20);
    }
    return s;
  };
  size_t found = 0;
  constexpr int kPairs = 20000;
  for (int i = 0; i < kPairs; ++i) {
    const std::string keyword = rng.NextBounded(4) == 0
                                    ? draw(all_bytes, 0, 4)
                                    : draw(word_bytes, 1, 4);
    const std::string planted = random_case(keyword);
    const std::string head = draw(all_bytes, 0, 12);
    const std::string tail = draw(all_bytes, 0, 12);
    const std::string word(1, word_bytes[rng.NextBounded(word_bytes.size())]);
    std::string text;
    switch (rng.NextBounded(6)) {
      case 0: text = planted + tail; break;
      case 1: text = head + planted; break;
      case 2: text = head + planted + tail; break;
      case 3: text = head + word + planted + tail; break;
      case 4: text = head + planted + word + tail; break;
      default: text = head + tail; break;
    }
    const std::vector<std::string> tokens = TokenizeKeywords(text);
    const bool is_token = std::find(tokens.begin(), tokens.end(),
                                    ToLower(keyword)) != tokens.end();
    ASSERT_EQ(ContainsKeyword(text, keyword), is_token)
        << "text \"" << text << "\" keyword \"" << keyword << "\"";
    found += is_token ? 1 : 0;
  }
  // Both outcomes are well represented, so the identity is not vacuous.
  EXPECT_GT(found, kPairs / 5u);
  EXPECT_LT(found, kPairs * 4u / 5u);
}

TEST(StringsTest, ContainsKeywordAtBoundaries) {
  EXPECT_TRUE(ContainsKeyword("needle", "needle"));
  EXPECT_TRUE(ContainsKeyword("needle at start", "needle"));
  EXPECT_TRUE(ContainsKeyword("ends with needle", "needle"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, SummaryBasics) {
  Summary s;
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 3.0);
}

TEST(StatsTest, SummaryMerge) {
  Summary a, b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(StatsTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
}

TEST(StatsTest, PercentileSingleSample) {
  Summary s;
  s.Add(7);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 7.0);
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  Summary s;
  s.Add(40);
  s.Add(10);
  s.Add(30);
  s.Add(20);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 17.5);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 40.0);
  // Out-of-range ranks clamp to the extremes.
  EXPECT_DOUBLE_EQ(s.Percentile(-5), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(200), 40.0);
}

TEST(StatsTest, PercentileEmptyIsZeroAtAllRanks) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 0.0);
}

TEST(StatsTest, MergeDisjointSummaries) {
  Summary lo, hi;
  lo.Add(1);
  lo.Add(2);
  lo.Add(3);
  hi.Add(101);
  hi.Add(102);
  hi.Add(103);
  lo.Merge(hi);
  EXPECT_EQ(lo.count(), 6u);
  EXPECT_DOUBLE_EQ(lo.min(), 1.0);
  EXPECT_DOUBLE_EQ(lo.max(), 103.0);
  EXPECT_DOUBLE_EQ(lo.mean(), 52.0);
  EXPECT_DOUBLE_EQ(lo.Percentile(0), 1.0);
  // Median falls in the gap: halfway between 3 and 101.
  EXPECT_DOUBLE_EQ(lo.Percentile(50), 52.0);
  EXPECT_DOUBLE_EQ(lo.Percentile(100), 103.0);
}

TEST(StatsTest, HistogramBucketsAndOverflow) {
  Histogram h(10.0, 5);  // Buckets of width 2 + overflow.
  h.Add(0.5);
  h.Add(3.0);
  h.Add(9.9);
  h.Add(100.0);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.bucket(5), 1u);  // Overflow bucket.
  EXPECT_EQ(h.CumulativeAt(1), 2u);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 2.0);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, ParseLogLevelAcceptsKnownNamesAnyCase) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(LoggingTest, ParseLogLevelRejectsUnknownAndLeavesOutput) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("warned", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
}

TEST(LoggingTest, FilteredMessagesDoNotEvaluateOperands) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return "side effect";
  };
  BP_LOG(Debug) << touch();
  BP_LOG(Info) << touch();
  BP_LOG(Warn) << touch();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(saved);
}

TEST(LoggingTest, SetLogLevelControlsFiltering) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(saved);
}

// -------------------------------------------------------------- Quantiles

TEST(PercentileOfSortedTest, InclusiveInterpolation) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 100), 4.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 50), 2.5);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 25), 1.75);
  // Clamped, not extrapolated.
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, -5), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 150), 4.0);
}

TEST(PercentileOfSortedTest, EdgeSizes) {
  EXPECT_DOUBLE_EQ(PercentileOfSorted({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({7}, 0), 7.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({1, 2}, 50), 1.5);
}

TEST(PercentileOfSortedTest, MatchesSummaryPercentile) {
  // Summary::Percentile routes through the same shared routine; spot-check
  // they agree so the BENCH and bench_micro_net numbers stay comparable.
  Summary summary;
  std::vector<double> sorted;
  for (int i = 1; i <= 17; ++i) {
    summary.Add(i * 1.5);
    sorted.push_back(i * 1.5);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(summary.Percentile(p), PercentileOfSorted(sorted, p))
        << "p=" << p;
  }
}

TEST(HistogramPercentileTest, InterpolatesWithinBucket) {
  // 10 samples uniformly in (0,10], 10 in (10,20].
  const std::vector<double> bounds = {10, 20};
  const std::vector<uint64_t> buckets = {10, 10, 0};
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, buckets, 50), 10.0);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, buckets, 25), 5.0);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, buckets, 75), 15.0);
}

TEST(HistogramPercentileTest, OverflowBucketReadsAsLowerBound) {
  const std::vector<double> bounds = {10};
  const std::vector<uint64_t> buckets = {0, 5};  // All samples above 10.
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, buckets, 50), 10.0);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, buckets, 99), 10.0);
}

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(HistogramPercentile({10, 20}, {0, 0, 0}, 50), 0.0);
  EXPECT_DOUBLE_EQ(HistogramPercentile({}, {}, 50), 0.0);
}

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, UnitsAndFormat) {
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(5)), 5.0);
  EXPECT_EQ(FormatSimTime(Micros(50)), "50us");
  EXPECT_EQ(FormatSimTime(Millis(12) + Micros(500)), "12.50ms");
  EXPECT_EQ(FormatSimTime(Seconds(3)), "3.000s");
}

}  // namespace
}  // namespace bestpeer
