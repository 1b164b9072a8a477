#include "probes.h"

#include "agent/agent_message.h"
#include "agent/agent_runtime.h"
#include "compress/codec.h"
#include "workload/corpus.h"

namespace hostbench {

using namespace bestpeer;  // NOLINT: benchmark driver.

void CapturingTransport::Send(NodeId dst, uint32_t type, Bytes payload,
                              size_t extra_wire_bytes, FlowId flow) {
  if (type == agent::kAgentTransferType &&
      sink_->size() < kCapturedAgentMessages) {
    sink_->push_back(payload);
  }
  inner_->Send(dst, type, std::move(payload), extra_wire_bytes, flow);
}

void AddSpanLayers(const Tracer& tracer, Report* report) {
  const auto [make_us, objects] = tracer.Total("workload.make_object");
  report->Add("workload.make_object_us", make_us, "us");
  report->Add("workload.objects", static_cast<double>(objects), "count");
  const double share_us = tracer.TotalUs("core.share_object");
  report->Add("core.share_object_us", share_us, "us");
  report->Add("core.share_object_us_per_object",
              objects == 0 ? 0 : share_us / static_cast<double>(objects), "us");
  report->Add("core.issue_search_us", tracer.MeanUs("core.issue_search"), "us");
}

void AddAgentCounters(const metrics::Snapshot& before,
                      const metrics::Snapshot& after, Report* report) {
  auto delta = [&](const char* name) {
    return after.Value(name) - before.Value(name);
  };
  const double received = delta("agent.received");
  report->Add("agent.migrations", delta("agent.migrations"), "count");
  report->Add("agent.received", received, "count");
  report->Add("agent.duplicates_dropped", delta("agent.duplicates_dropped"),
              "count");
  report->Add("agent.serialize_bytes", delta("agent.serialize_bytes"), "bytes");
  report->Add("agent.useful_ratio",
              received == 0 ? 0 : delta("agent.executed") / received, "ratio");
}

size_t ProbeScan(core::BestPeerNode& node, Report* report) {
  constexpr int kReps = 5;
  storm::Storm* store = node.storage();
  std::vector<double> us;
  size_t matches = 0;
  for (int i = 0; i < kReps; ++i) {
    const int64_t start = NowNs();
    auto result = store->ScanSearch(workload::CorpusGenerator::kNeedle);
    us.push_back(NsToUs(NowNs() - start));
    if (!result.ok()) return 0;
    matches = result.value().matches.size();
  }
  const double objects = static_cast<double>(store->object_count());
  report->Add("storm.scan_us_per_object",
              objects == 0 ? 0 : Median(us) / objects, "us");
  return matches;
}

void AddPoolStats(const std::vector<std::unique_ptr<core::BestPeerNode>>& nodes,
                  Report* report) {
  uint64_t hits = 0, misses = 0;
  for (const auto& node : nodes) {
    hits += node->storage()->buffer_pool().hits();
    misses += node->storage()->buffer_pool().misses();
  }
  const uint64_t total = hits + misses;
  report->Add("storm.pool_hit_rate",
              total == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(total),
              "ratio");
  report->Add("storm.pool_misses", static_cast<double>(misses), "count");
}

bool ProbeAgentMessages(const std::vector<Bytes>& wire_payloads,
                        const std::string& codec_name, Report* report) {
  // Several rounds so the timed intervals are well above clock resolution.
  constexpr int kRounds = 4;
  auto wire_codec = MakeCodec(codec_name);
  auto lzss = MakeCodec("lzss");
  if (!wire_codec.ok() || !lzss.ok()) return false;
  std::vector<Bytes> encoded;
  for (const Bytes& payload : wire_payloads) {
    auto raw = wire_codec.value()->Decompress(payload);
    if (!raw.ok()) return false;
    encoded.push_back(std::move(raw).value());
  }
  double raw_bytes = 0, packed_bytes = 0;
  int64_t compress_ns = 0, decompress_ns = 0, encode_ns = 0, decode_ns = 0;
  bool ok = !encoded.empty();
  for (int round = 0; round < kRounds && ok; ++round) {
    for (const Bytes& raw : encoded) {
      int64_t t = NowNs();
      auto packed = lzss.value()->Compress(raw);
      compress_ns += NowNs() - t;
      if (!packed.ok()) return false;
      t = NowNs();
      auto unpacked = lzss.value()->Decompress(packed.value());
      decompress_ns += NowNs() - t;
      t = NowNs();
      auto msg = agent::AgentMessage::Decode(raw);
      decode_ns += NowNs() - t;
      if (!msg.ok()) return false;
      t = NowNs();
      Bytes reencoded = msg.value().Encode();
      encode_ns += NowNs() - t;
      ok = ok && unpacked.ok() && unpacked.value() == raw && reencoded == raw;
      raw_bytes += static_cast<double>(raw.size());
      packed_bytes += static_cast<double>(packed.value().size());
    }
  }
  const double kb = raw_bytes / 1024.0;
  const double n = static_cast<double>(encoded.size()) * kRounds;
  report->Add("compress.compress_us_per_kb",
              kb == 0 ? 0 : NsToUs(compress_ns) / kb, "us/KiB");
  report->Add("compress.decompress_us_per_kb",
              kb == 0 ? 0 : NsToUs(decompress_ns) / kb, "us/KiB");
  report->Add("compress.ratio", packed_bytes == 0 ? 0 : raw_bytes / packed_bytes,
              "ratio");
  report->Add("agent.encode_us", n == 0 ? 0 : NsToUs(encode_ns) / n, "us");
  report->Add("agent.decode_us", n == 0 ? 0 : NsToUs(decode_ns) / n, "us");
  return ok;
}

}  // namespace hostbench
