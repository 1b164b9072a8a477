// One hostile-input table over every wire format that util/wire.h codes:
// each format round-trips a populated sample, encodes to golden bytes (so a
// layout change fails here), rejects every strict prefix and one appended
// byte, rejects a vector count of 2^62 and, at the count, one past a
// frame's cap, and survives a flipped byte or an oversized varint at every
// offset. BPF1 frames also run through FrameDecoder's incremental sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent_message.h"
#include "baseline/cs_node.h"
#include "baseline/gnutella.h"
#include "compress/codec.h"
#include "core/active_object.h"
#include "core/compute.h"
#include "core/messages.h"
#include "core/search_agent.h"
#include "gossip/gossip_frame.h"
#include "liglo/liglo_protocol.h"
#include "net/frame.h"
#include "net/sim_transport.h"
#include "obs/stat_frame.h"
#include "obs/trace_frame.h"
#include "sim/simulator.h"
#include "storm/content_summary.h"
#include "storm/keyword_index.h"
#include "storm/wal.h"
#include "util/wire.h"

namespace bestpeer {
namespace {

constexpr uint64_t kHugeCount = uint64_t{1} << 62;
constexpr size_t kNone = std::numeric_limits<size_t>::max();

std::string Hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

Bytes Varint(uint64_t v) {
  BinaryWriter w;
  w.WriteVarint(v);
  return w.Take();
}

/// `bytes` with the one byte at `at` replaced by `with`.
Bytes Splice(const Bytes& bytes, size_t at, const Bytes& with) {
  Bytes out(bytes.begin(), bytes.begin() + static_cast<long>(at));
  out.insert(out.end(), with.begin(), with.end());
  out.insert(out.end(), bytes.begin() + static_cast<long>(at) + 1,
             bytes.end());
  return out;
}

/// Decodes its input and, on success, returns the decoded value encoded
/// again.
using RoundTrip = std::function<Result<Bytes>(const Bytes&)>;

/// Every strict prefix of `valid` fails to decode except the one
/// `ok_prefix` bytes long, and no single-byte flip and no 2^62 or 2^64-1
/// varint spliced in at any offset makes the decoder throw.
void SweepPrefixesAndFlips(const Bytes& valid, const RoundTrip& decode,
                           size_t ok_prefix = kNone) {
  for (size_t n = 0; n < valid.size(); ++n) {
    Bytes prefix(valid.begin(), valid.begin() + static_cast<long>(n));
    EXPECT_EQ(decode(prefix).ok(), n == ok_prefix) << "prefix " << n;
  }
  for (size_t i = 0; i < valid.size(); ++i) {
    Bytes flipped = valid;
    flipped[i] ^= 0xFF;
    EXPECT_NO_THROW(decode(flipped)) << "flip at " << i;
    EXPECT_NO_THROW(decode(Splice(valid, i, Varint(kHugeCount))))
        << "2^62 at " << i;
    EXPECT_NO_THROW(
        decode(Splice(valid, i, Varint(std::numeric_limits<uint64_t>::max()))))
        << "2^64-1 at " << i;
  }
}

struct Format {
  std::string name;
  Bytes encoded;
  RoundTrip round_trip;
  /// Hex of the sample's encoding by the hand-written encoders this codec
  /// replaced.
  std::string golden;
  /// Offsets of the vector counts in `encoded`.
  std::vector<size_t> counts;
  /// The offset and wire::Max of each capped count.
  std::vector<std::pair<size_t, size_t>> caps;
  /// A prefix this long is itself a valid message (an optional trailing
  /// section cut off).
  size_t ok_prefix = kNone;
};

template <typename M>
Format Row(std::string name, const M& sample, std::string golden,
           std::vector<size_t> counts = {}) {
  RoundTrip round_trip = [](const Bytes& bytes) -> Result<Bytes> {
    BP_ASSIGN_OR_RETURN(M decoded, wire::Decode<M>(bytes));
    return wire::Encode(decoded);
  };
  return {std::move(name), wire::Encode(sample), std::move(round_trip),
          std::move(golden), std::move(counts), {}};
}

/// A row for an agent class: its state goes through the virtual
/// SaveState/LoadState a node calls.
template <typename A>
Format AgentRow(std::string name, const A& sample, std::string golden,
                std::vector<size_t> counts = {}) {
  RoundTrip round_trip = [](const Bytes& bytes) -> Result<Bytes> {
    A decoded;
    agent::Agent& agent = decoded;
    BP_RETURN_IF_ERROR(agent.LoadState(bytes));
    return agent.SaveState();
  };
  return {std::move(name), sample.SaveState(), std::move(round_trip),
          std::move(golden), std::move(counts), {}};
}

core::ResultItem Item(storm::ObjectId id, const std::string& content) {
  return {id, "obj-" + std::to_string(id), ToBytes(content)};
}

liglo::PeerEntry Peer(uint32_t node, liglo::IpAddress ip) {
  return {liglo::Bpid{3, node}, ip};
}

std::vector<Format> Formats() {
  std::vector<Format> rows;

  // ---- core (paper §3.2)
  core::SearchResultMessage result;
  result.query_id = 0x1122334455667788;
  result.hops = 3;
  result.mode = 1;
  result.responder_object_count = 1000;
  result.items = {Item(7, "seven"), Item(9, "")};
  result.cache_epoch = 300;
  result.cache_flags = core::SearchResultMessage::kCacheNotModified;
  core::SearchResultMessage cache_off = result;
  cache_off.cache_epoch = 0;
  cache_off.cache_flags = 0;

  rows.push_back(Row("ResultItem", Item(7, "seven"),
                     "0700000000000000056f626a2d3705736576656e"));
  rows.push_back(Row("SearchResultMessage", result,
                     "8877665544332211030001e8030000020700000000000000056f62"
                     "6a2d3705736576656e0900000000000000056f626a2d3900ac0201",
                     {15}));
  rows.back().ok_prefix = wire::Encode(cache_off).size();
  rows.push_back(Row("SearchResultMessage (cache off)", cache_off,
                     "8877665544332211030001e8030000020700000000000000056f62"
                     "6a2d3705736576656e0900000000000000056f626a2d3900",
                     {15}));
  rows.push_back(Row("CacheReplicaPushMessage",
                     core::CacheReplicaPushMessage{200, 5000000,
                                                   {Item(7, "seven")}},
                     "c801404b4c0000000000010700000000000000056f626a2d370573"
                     "6576656e",
                     {10}));
  rows.push_back(Row("DataShipRequest", core::DataShipRequest{0x100000001},
                     "0100000001000000"));
  rows.push_back(Row("FetchRequestMessage",
                     core::FetchRequestMessage{42, {1, 2, 0x10000000000}},
                     "2a0000000000000003010000000000000002000000000000000000"
                     "000000010000",
                     {8}));
  rows.push_back(Row("FetchResponseMessage",
                     core::FetchResponseMessage{
                         42, {Item(7, "seven"), Item(9, "")}},
                     "2a00000000000000020700000000000000056f626a2d3705736576"
                     "656e0900000000000000056f626a2d3900",
                     {8}));
  rows.push_back(Row("WatchRequest", core::WatchRequest{false}, "00"));
  rows.push_back(Row("UpdateNotifyMessage",
                     core::UpdateNotifyMessage{
                         core::UpdateNotifyMessage::Kind::kRemoved, 77},
                     "024d00000000000000"));
  rows.push_back(Row("ActiveObjectRequest",
                     core::ActiveObjectRequest{5, "doc", 2},
                     "050000000000000003646f6302"));
  rows.push_back(Row("ActiveObjectResponse",
                     core::ActiveObjectResponse{5, true, ToBytes("content")},
                     "05000000000000000107636f6e74656e74"));
  core::ActiveObject active;
  active.AddDataElement(ToBytes("hello "));
  active.AddActiveElement("redact-secrets", ToBytes("[SECRET]x[/SECRET]"));
  rows.push_back(Row("ActiveObject", active,
                     "0200000668656c6c6f20010e7265646163742d7365637265747312"
                     "5b5345435245545d785b2f5345435245545d",
                     {0}));

  // ---- LIGLO (paper §2)
  rows.push_back(Row("Bpid", liglo::Bpid{3, 17}, "0300000011000000"));
  rows.push_back(
      Row("PeerEntry", Peer(17, 0x0A000001), "03000000110000000100000a"));
  rows.push_back(Row("RegisterRequest",
                     liglo::RegisterRequest{11, 0x0A000001},
                     "0b000000000000000100000a"));
  rows.push_back(Row("RegisterResponse",
                     liglo::RegisterResponse{
                         11, true, liglo::Bpid{3, 17},
                         {Peer(4, 5), Peer(6, 7)}},
                     "0b0000000000000001030000001100000002030000000400000005"
                     "000000030000000600000007000000",
                     {17}));
  rows.push_back(Row("UpdateRequest",
                     liglo::UpdateRequest{12, liglo::Bpid{3, 17},
                                          0x0A000002, false},
                     "0c0000000000000003000000110000000200000a00"));
  rows.push_back(Row("UpdateResponse", liglo::UpdateResponse{12, true},
                     "0c0000000000000001"));
  rows.push_back(Row("ResolveRequest",
                     liglo::ResolveRequest{13, liglo::Bpid{3, 17}},
                     "0d000000000000000300000011000000"));
  rows.push_back(Row("ResolveResponse",
                     liglo::ResolveResponse{
                         13, liglo::PeerState::kOffline, 0x0A000003},
                     "0d00000000000000010300000a"));
  rows.push_back(Row("PeersRequest",
                     liglo::PeersRequest{14, liglo::Bpid{3, 17}},
                     "0e000000000000000300000011000000"));
  rows.push_back(Row("PeersResponse",
                     liglo::PeersResponse{14, {Peer(4, 5), Peer(6, 7)}},
                     "0e0000000000000002030000000400000005000000030000000600"
                     "000007000000",
                     {8}));
  rows.push_back(Row("PingMessage", liglo::PingMessage{0xABCDEF},
                     "efcdab0000000000"));
  rows.push_back(Row("PongMessage",
                     liglo::PongMessage{0xABCDEF, liglo::Bpid{3, 17},
                                        0x0A000004},
                     "efcdab000000000003000000110000000400000a"));

  // ---- agent transfer (paper §3.1)
  rows.push_back(Row("AgentMessage",
                     agent::AgentMessage{0x77, "bestpeer.search", 4, 6, 2,
                                         ToBytes("state")},
                     "77000000000000000f62657374706565722e736561726368040000"
                     "0006000200057374617465"));

  core::SearchAgent search(0x1122334455667788, "needle",
                          core::AnswerMode::kIndicate);
  const size_t plain_state = search.SaveState().size();
  rows.push_back(AgentRow("SearchAgent", search,
                          "8877665544332211066e6565646c65020f000000000000"
                          "0040"));
  core::SearchAgent probe = search;
  probe.EnableCacheProbe({{3, 300}, {9, 5}});
  rows.push_back(AgentRow("SearchAgent (probe)", probe,
                          "8877665544332211066e6565646c65020f000000000000"
                          "00400105000000000000000203000000ac020900000005",
                          {34}));
  rows.back().ok_prefix = plain_state;
  core::SearchAgent index = search;
  index.EnableIndexSearch();
  rows.push_back(AgentRow("SearchAgent (index)", index,
                          "8877665544332211066e6565646c65020f000000000000"
                          "0040020100000000000000"));
  rows.back().ok_prefix = plain_state;
  core::SearchAgent probe_index = probe;
  probe_index.EnableIndexSearch();
  rows.push_back(AgentRow("SearchAgent (probe+index)", probe_index,
                          "8877665544332211066e6565646c65020f000000000000"
                          "00400305000000000000000203000000ac020900000005"
                          "0100000000000000",
                          {34}));
  rows.back().ok_prefix = plain_state;
  rows.push_back(AgentRow("ComputeAgent",
                          core::ComputeAgent(7, "keep", ToBytes("params")),
                          "0700000000000000046b65657006706172616d731e0000"
                          "0000000000"));

  // ---- BPF1 frame header
  net::FrameHeader header;
  header.type = 0x42500001;
  header.src = 1;
  header.dst = 2;
  header.flow = 0x99;
  header.payload_len = 7;
  header.extra_wire = 5000;
  header.flags = net::kFrameFlagSampled;
  header.sent_at_us = 12345;
  rows.push_back(Row("FrameHeader", header,
                     "425046310100010001005042010000000200000099000000000000"
                     "000700000088130000393000000000000000000000000000000000"
                     "00000000000000000000"));

  // ---- StorM: content summaries and WAL record bodies
  storm::KeywordIndex keywords;
  keywords.Add(1, "alpha beta gamma");
  keywords.Add(2, "alpha delta");
  rows.push_back(Row("ContentSummary",
                     storm::ContentSummary::Build(keywords, 42),
                     "2a04060103621984f00c28d00405616c706861020462657461010564"
                     "656c7461010567616d6d6101",
                     {3, 12}));
  rows.back().caps = {{3, storm::ContentSummary::kMaxFilterWords},
                      {12, storm::ContentSummary::kMaxTopKeywords}};
  using WalRecord = storm::WriteAheadLog::Record;
  using WalType = storm::WriteAheadLog::RecordType;
  rows.push_back(Row("WAL Put", WalRecord{WalType::kPut, 5, ToBytes("content")},
                     "01050000000000000007636f6e74656e74"));
  rows.push_back(Row("WAL Delete", WalRecord{WalType::kDelete, 5, {}},
                     "020500000000000000"));
  rows.push_back(Row("WAL Checkpoint", WalRecord{WalType::kCheckpoint, 0, {}},
                     "03"));

  // ---- Gnutella baseline
  baseline::GnutellaDescriptor descriptor;
  for (size_t i = 0; i < descriptor.guid.size(); ++i) {
    descriptor.guid[i] = static_cast<uint8_t>(i);
  }
  descriptor.function = baseline::GnutellaFunction::kQueryHit;
  descriptor.ttl = 5;
  descriptor.hops = 2;
  descriptor.payload = ToBytes("hit");
  baseline::GnutellaQueryHit hit{9, {{1, 1024, "a.txt"}, {2, 2048, "b.txt"}}};
  rows.push_back(Row("GnutellaDescriptor", descriptor,
                     "000102030405060708090a0b0c0d0e0f81050203686974"));
  rows.push_back(Row("GnutellaQuery", baseline::GnutellaQuery{56, "needle"},
                     "3800066e6565646c65"));
  rows.push_back(Row("GnutellaQueryHit", hit,
                     "0900000002010000000004000005612e7478740200000000080000"
                     "05622e747874",
                     {4}));
  rows.push_back(Row("GnutellaQueryHit::FileEntry", hit.files[0],
                     "010000000004000005612e747874"));
  rows.push_back(Row("GnutellaPush", baseline::GnutellaPush{9, 3, 1},
                     "090000000300000001000000"));
  rows.push_back(Row("GnutellaPong", baseline::GnutellaPong{9, 12},
                     "090000000c000000"));

  // ---- BPG1 gossip, BPS1 stat and BPT1 trace frames
  gossip::GossipItem lease{gossip::ItemKind::kLeaseGrant, 2, 99, 3, 7, 8};
  gossip::GossipFrame gossip_frame;
  gossip_frame.sender = 2;
  gossip_frame.round = 9;
  gossip_frame.flags = gossip::GossipFrame::kFlagResponse;
  gossip_frame.items = {{gossip::ItemKind::kIndexEpoch, 2, 0, 0, 5, 5}, lease};
  rows.push_back(Row("GossipItem", lease,
                     "020200000063000000000000000300000007000000000000000800"
                     "000000000000"));
  rows.push_back(Row("GossipFrame", gossip_frame,
                     "425047310100020000000900000000000000010201020000000000"
                     "000000000000000000000500000000000000050000000000000002"
                     "020000006300000000000000030000000700000000000000080000"
                     "0000000000",
                     {19}));
  rows.back().caps = {{19, gossip::kGossipFrameMaxItems}};

  obs::StatFrame stat;
  stat.node = 3;
  stat.sent_at_us = 123456;
  metrics::SnapshotEntry counter;
  counter.name = "net.sent";
  counter.labels = {{"node", "3"}};
  counter.value = 42;
  metrics::SnapshotEntry histogram;
  histogram.name = "q.ms";
  histogram.kind = metrics::InstrumentKind::kHistogram;
  histogram.value = 10.5;
  histogram.count = 3;
  histogram.min = 1;
  histogram.max = 6;
  histogram.bounds = {1, 5};
  histogram.buckets = {1, 1, 1};
  stat.snapshot.entries = {counter, histogram};
  rows.push_back(Row(
      "StatFrame", stat,
      "4250533101000300000040e201000000000002086e65742e73656e740001046e6f6465"
      "013300000000000045400000000000000000000000000000000000000004712e6d7302"
      "00000000000000254003000000000000f03f000000000000184002000000000000f03f"
      "000000000000144003010101",
      {18, 29, 62, 63, 70, 96, 113}));
  rows.back().caps = {{18, obs::kStatFrameMaxEntries},
                      {29, obs::kStatFrameMaxLabels},
                      {96, obs::kStatFrameMaxBuckets},
                      {113, obs::kStatFrameMaxBuckets + 1}};

  obs::TraceFrame trace_frame;
  trace_frame.node = 3;
  trace_frame.sent_at_us = 999;
  trace_frame.spans_dropped = 2;
  trace_frame.spans = {trace::Span{"query", "query", 3, 100, 50, 0x42,
                                   {{"answers", 5}}}};
  rows.push_back(Row("TraceFrame", trace_frame,
                     "42505431010003000000e703000000000000020105717565727905"
                     "717565727903000000640000000000000032000000000000004200"
                     "0000000000000107616e73776572730500000000000000",
                     {19, 60}));
  rows.back().caps = {{19, obs::kTraceFrameMaxSpans},
                      {60, obs::kTraceFrameMaxArgs}};
  return rows;
}

TEST(WireTest, EveryFormatRejectsHostileInput) {
  for (const Format& f : Formats()) {
    SCOPED_TRACE(f.name);
    EXPECT_EQ(Hex(f.encoded), f.golden) << "layout changed";
    auto again = f.round_trip(f.encoded);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value(), f.encoded);

    Bytes longer = f.encoded;
    longer.push_back(0x00);
    EXPECT_FALSE(f.round_trip(longer).ok()) << "one appended byte";
    for (size_t at : f.counts) {
      auto huge = f.round_trip(Splice(f.encoded, at, Varint(kHugeCount)));
      ASSERT_FALSE(huge.ok()) << "2^62 count at " << at;
      EXPECT_NE(huge.status().message().find("count exceeds payload"),
                std::string::npos)
          << at << ": " << huge.status().ToString();
    }
    // A count past its cap fails at the count, before any element is
    // stored: with more than enough bytes behind it, the error is the cap,
    // not the payload size, a truncated element or a Check() rule.
    for (auto [at, max] : f.caps) {
      Bytes over = Splice(f.encoded, at, Varint(max + 1));
      over.resize(over.size() + max + 1, 0x00);
      auto r = f.round_trip(over);
      ASSERT_FALSE(r.ok()) << "count " << max + 1 << " at " << at;
      EXPECT_NE(r.status().message().find("count over limit"),
                std::string::npos)
          << at << ": " << r.status().ToString();
    }
    SweepPrefixesAndFlips(f.encoded, f.round_trip, f.ok_prefix);
  }
}

// Every cap and Check() rule, at and just past its limit: a well-formed
// layout that breaks a rule still fails to decode.
TEST(WireTest, ChecksRejectWhatTheLayoutAllows) {
  auto gossip_ok = [](size_t items, uint8_t flags) {
    gossip::GossipFrame frame;
    frame.flags = flags;
    frame.items.resize(items);
    return gossip::DecodeGossipFrame(wire::Encode(frame)).ok();
  };
  EXPECT_TRUE(gossip_ok(gossip::kGossipFrameMaxItems,
                        gossip::GossipFrame::kFlagResponse));
  EXPECT_FALSE(gossip_ok(gossip::kGossipFrameMaxItems + 1, 0));
  EXPECT_FALSE(gossip_ok(0, 0x02));

  const std::string name(obs::kStatFrameMaxNameLen, 'n');
  const std::string longer = name + "n";
  auto stat_ok = [](size_t entries, auto edit) {
    obs::StatFrame frame;
    frame.snapshot.entries.resize(entries);
    edit(frame.snapshot.entries.back());
    return obs::DecodeStatFrame(wire::Encode(frame)).ok();
  };
  auto none = [](metrics::SnapshotEntry&) {};
  EXPECT_TRUE(stat_ok(obs::kStatFrameMaxEntries, [&](auto& e) {
    e.name = name;
    e.labels.assign(obs::kStatFrameMaxLabels, {name, name});
    e.bounds.resize(obs::kStatFrameMaxBuckets);
    e.buckets.resize(obs::kStatFrameMaxBuckets + 1);
  }));
  EXPECT_FALSE(stat_ok(obs::kStatFrameMaxEntries + 1, none));
  EXPECT_FALSE(stat_ok(1, [&](auto& e) { e.name = longer; }));
  EXPECT_FALSE(stat_ok(
      1, [](auto& e) { e.labels.resize(obs::kStatFrameMaxLabels + 1); }));
  EXPECT_FALSE(stat_ok(1, [&](auto& e) { e.labels = {{longer, ""}}; }));
  EXPECT_FALSE(stat_ok(1, [&](auto& e) { e.labels = {{"", longer}}; }));
  EXPECT_FALSE(stat_ok(
      1, [](auto& e) { e.bounds.resize(obs::kStatFrameMaxBuckets + 1); }));
  EXPECT_FALSE(stat_ok(1, [](auto& e) {
    e.bounds.resize(2);
    e.buckets.resize(2);
  }));

  auto trace_ok = [](size_t spans, auto edit) {
    obs::TraceFrame frame;
    frame.spans.resize(spans);
    edit(frame.spans.back());
    return obs::DecodeTraceFrame(wire::Encode(frame)).ok();
  };
  EXPECT_TRUE(trace_ok(obs::kTraceFrameMaxSpans, [&](auto& s) {
    s.name = name;
    s.cat = name;
    s.args.assign(obs::kTraceFrameMaxArgs, {name, 1});
  }));
  EXPECT_FALSE(trace_ok(obs::kTraceFrameMaxSpans + 1, [](auto&) {}));
  EXPECT_FALSE(trace_ok(1, [&](auto& s) { s.name = longer; }));
  EXPECT_FALSE(trace_ok(1, [&](auto& s) { s.cat = longer; }));
  EXPECT_FALSE(trace_ok(
      1, [](auto& s) { s.args.resize(obs::kTraceFrameMaxArgs + 1); }));
  EXPECT_FALSE(trace_ok(1, [&](auto& s) { s.args = {{longer, 1}}; }));

  // Content summaries: 1..kMaxHashes hashes over a nonempty filter.
  storm::KeywordIndex keywords;
  keywords.Add(1, "alpha");
  const Bytes summary = storm::ContentSummary::Build(keywords, 1).Encode();
  auto hashes_ok = [&](uint8_t hashes) {
    Bytes edited = summary;
    edited[2] = hashes;
    return storm::ContentSummary::Decode(edited).ok();
  };
  EXPECT_TRUE(hashes_ok(1));
  EXPECT_TRUE(hashes_ok(storm::ContentSummary::kMaxHashes));
  EXPECT_FALSE(hashes_ok(0));
  EXPECT_FALSE(hashes_ok(storm::ContentSummary::kMaxHashes + 1));
  Bytes no_filter(summary.begin(), summary.begin() + 3);
  no_filter.push_back(0x00);
  no_filter.insert(no_filter.end(), summary.begin() + 12, summary.end());
  EXPECT_FALSE(storm::ContentSummary::Decode(no_filter).ok());

  // Search agent state: a present feature byte names one or both known
  // features, and known epochs name each node once, in ascending order.
  core::SearchAgent search(7, "needle", core::AnswerMode::kDirect);
  auto loads = [](const Bytes& state) {
    core::SearchAgent agent;
    return agent.LoadState(state).ok();
  };
  for (uint8_t features : {0x00, 0x04, 0x81}) {
    Bytes state = search.SaveState();
    state.push_back(features);
    EXPECT_FALSE(loads(state)) << int{features};
  }
  auto epochs_ok = [&](std::vector<core::SearchAgent::KnownEpoch> known) {
    core::SearchAgent probe = search;
    probe.EnableCacheProbe(std::move(known));
    return loads(probe.SaveState());
  };
  EXPECT_TRUE(epochs_ok({}));
  EXPECT_TRUE(epochs_ok({{3, 1}, {9, 1}}));
  EXPECT_FALSE(epochs_ok({{9, 1}, {3, 1}}));
  EXPECT_FALSE(epochs_ok({{3, 1}, {3, 2}}));

  // WAL record types run 1..3.
  for (uint8_t type : {0x00, 0x04}) {
    EXPECT_FALSE(wire::Decode<storm::WriteAheadLog::Record>(Bytes{type}).ok())
        << int{type};
  }

  // Gnutella function codes: 0x42 sits inside the one-byte range but
  // names no descriptor; 0x82 is past it.
  baseline::GnutellaDescriptor descriptor;
  for (uint8_t code : {0x00, 0x01, 0x40, 0x80, 0x81, 0x42, 0x82}) {
    descriptor.function = static_cast<baseline::GnutellaFunction>(code);
    EXPECT_EQ(baseline::GnutellaDescriptor::Decode(descriptor.Encode()).ok(),
              code != 0x42 && code != 0x82)
        << int{code};
  }
}

// The client/server baseline's messages are private to CsNode, so they
// are reached the way the network reaches them: captured from a real query
// on the line a - b - c, then replayed, mutated, into b, whose replies
// show whether it decoded them.
class CsWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    for (int i = 0; i < 3; ++i) {
      nodes_.push_back(
          baseline::CsNode::Create(fleet_->AddNode(), {}).value());
      ASSERT_TRUE(nodes_.back()->InitStorage({}).ok());
    }
    for (int i = 0; i < 2; ++i) {
      nodes_[i]->AddNeighborLocal(nodes_[i + 1]->node());
      nodes_[i + 1]->AddNeighborLocal(nodes_[i]->node());
    }
    ASSERT_TRUE(nodes_[2]->ShareObject(1, ToBytes("needle")).ok());
    network_->SetTrace([this](const net::Message& m, SimTime, SimTime) {
      if (m.src == b()) ++sent_by_b_;
      if (m.src == c() && m.dst == b()) {
        captured_[m.type] = codec_->Decompress(m.payload).value();
      }
      if (m.src == a() && m.dst == b() && m.type == baseline::kCsQueryType) {
        captured_[m.type] = codec_->Decompress(m.payload).value();
      }
    });
  }

  NodeId a() const { return nodes_[0]->node(); }
  NodeId b() const { return nodes_[1]->node(); }
  NodeId c() const { return nodes_[2]->node(); }

  /// Delivers `payload` to b from `src` and reports how many messages b
  /// sent in response.
  size_t Deliver(NodeId src, uint32_t type, const Bytes& payload) {
    size_t before = sent_by_b_;
    network_->Send(src, b(), type, codec_->Compress(payload).value());
    sim_.RunUntilIdle();
    return sent_by_b_ - before;
  }

  /// Every strict prefix and one appended byte of `valid` leave b silent.
  void ExpectRejected(NodeId src, uint32_t type, const Bytes& valid) {
    for (size_t n = 0; n < valid.size(); ++n) {
      Bytes prefix(valid.begin(), valid.begin() + static_cast<long>(n));
      EXPECT_EQ(Deliver(src, type, prefix), 0u) << "prefix " << n;
    }
    Bytes longer = valid;
    longer.push_back(0x00);
    EXPECT_EQ(Deliver(src, type, longer), 0u) << "one appended byte";
  }

  /// Flips and oversized varints at every offset of `valid` do not crash b.
  void Survives(NodeId src, uint32_t type, const Bytes& valid) {
    for (size_t i = 0; i < valid.size(); ++i) {
      Bytes flipped = valid;
      flipped[i] ^= 0xFF;
      Deliver(src, type, flipped);
      Deliver(src, type, Splice(valid, i, Varint(kHugeCount)));
      Deliver(src, type,
              Splice(valid, i, Varint(std::numeric_limits<uint64_t>::max())));
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::vector<std::unique_ptr<baseline::CsNode>> nodes_;
  std::shared_ptr<const Codec> codec_ = MakeCodec("lzss").value();
  std::map<uint32_t, Bytes> captured_;
  size_t sent_by_b_ = 0;
};

TEST_F(CsWireTest, MessagesRejectHostileInput) {
  uint64_t qid = nodes_[0]->IssueQuery("needle").value();
  sim_.RunUntilIdle();
  ASSERT_TRUE(nodes_[0]->FindSession(qid)->complete());
  const Bytes query = captured_.at(baseline::kCsQueryType);
  const Bytes answer = captured_.at(baseline::kCsAnswerType);
  const Bytes done = captured_.at(baseline::kCsDoneType);
  EXPECT_EQ(Hex(query), "0100000000000000066e6565646c65");
  EXPECT_EQ(Hex(answer),
            "01000000000000000200000001010000000000000005"
            "6f626a2d31066e6565646c65");
  EXPECT_EQ(Hex(done), "0100000000000000");

  // b already relays `qid`: a decoded query is answered with a Done, and
  // a decoded answer is relayed to a.
  ASSERT_EQ(Deliver(a(), baseline::kCsQueryType, query), 1u);
  ExpectRejected(a(), baseline::kCsQueryType, query);
  uint64_t relayed = nodes_[1]->relayed_answers();
  ASSERT_EQ(Deliver(c(), baseline::kCsAnswerType, answer), 1u);
  ExpectRejected(c(), baseline::kCsAnswerType, answer);
  EXPECT_EQ(Deliver(c(), baseline::kCsAnswerType,
                    Splice(answer, 12, Varint(kHugeCount))),
            0u);
  EXPECT_EQ(nodes_[1]->relayed_answers(), relayed + 1);

  // With c offline, b waits on c's Done for a second query; only a
  // decoded Done lets b finish it.
  network_->SetOnline(c(), false);
  uint64_t waiting = nodes_[0]->IssueQuery("needle").value();
  sim_.RunUntilIdle();
  network_->SetOnline(c(), true);
  Bytes done_waiting = done;
  std::memcpy(done_waiting.data(), &waiting, sizeof(waiting));
  ExpectRejected(c(), baseline::kCsDoneType, done_waiting);
  EXPECT_FALSE(nodes_[0]->FindSession(waiting)->complete());
  EXPECT_EQ(Deliver(c(), baseline::kCsDoneType, done_waiting), 1u);
  EXPECT_TRUE(nodes_[0]->FindSession(waiting)->complete());

  Survives(a(), baseline::kCsQueryType, query);
  Survives(c(), baseline::kCsAnswerType, answer);
  Survives(c(), baseline::kCsDoneType, done);
}

// ---- BPF1 frames as FrameDecoder parses them from a socket buffer

TEST(WireTest, FrameDecoderSurvivesSweeps) {
  net::FrameHeader header;
  header.type = 0x42500001;
  header.src = 1;
  header.dst = 2;
  header.flow = 0x99;
  header.flags = net::kFrameFlagSampled;
  header.sent_at_us = 12345;
  const Bytes frame = net::EncodeFrame(header, ToBytes("payload"));
  auto next = [](const Bytes& bytes) {
    net::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    net::FrameHeader h;
    Bytes payload;
    return decoder.Next(&h, &payload);
  };
  for (size_t n = 0; n < frame.size(); ++n) {
    Bytes prefix(frame.begin(), frame.begin() + static_cast<long>(n));
    auto r = next(prefix);
    ASSERT_TRUE(r.ok()) << "prefix " << n;
    EXPECT_FALSE(r.value()) << "prefix " << n << " yielded a frame";
  }
  ASSERT_TRUE(next(frame).ok() && next(frame).value());
  for (size_t i = 0; i < frame.size(); ++i) {
    Bytes flipped = frame;
    flipped[i] ^= 0xFF;
    EXPECT_NO_THROW(next(flipped));
  }
}

}  // namespace
}  // namespace bestpeer
