#ifndef BESTPEER_CORE_SEARCH_AGENT_H_
#define BESTPEER_CORE_SEARCH_AGENT_H_

#include <string>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "core/config.h"
#include "core/messages.h"
#include "net/cost_model.h"
#include "util/wire.h"

namespace bestpeer::storm {
class Storm;
}

namespace bestpeer::core {

/// Registered class name of the StorM search agent.
inline constexpr std::string_view kSearchAgentClass = "StormSearchAgent";

/// The paper's StorM agent (§4.2): at each visited node it compares every
/// object in the shared StorM database against the query keyword, then
/// sends the matches straight back to the base node (out-of-network).
///
/// Carried state: query id, keyword, answer mode and the armed optional
/// features. The encoding also carries the sender's cost-model values
/// (per-object cost, descriptor size, and the probe / per-posting cost of
/// an armed feature), but the agent executes with the visited node's
/// net/cost_model.h constants: Wire() writes those values from the cost
/// model and reads them into a discard, so a hostile sender cannot size a
/// reply or set a node's CPU charge.
class SearchAgent : public agent::Agent {
 public:
  /// The base node's last known IndexEpoch of one responder.
  struct KnownEpoch {
    uint32_t node = 0;
    uint64_t epoch = 0;

    static Status Wire(auto& m, auto& io) {
      return io(m.node, wire::Varint(m.epoch));
    }
  };

  SearchAgent() = default;
  SearchAgent(uint64_t query_id, std::string keyword, AnswerMode mode)
      : query_id_(query_id), keyword_(std::move(keyword)), mode_(mode) {}

  std::string_view class_name() const override { return kSearchAgentClass; }
  Bytes SaveState() const override { return wire::Encode(*this); }
  Status LoadState(const Bytes& state) override {
    return wire::DecodeInto(state, *this);
  }
  Status Execute(agent::AgentContext& ctx) override;
  /// Without a cache probe the agent only scans (or index-searches) the
  /// store and builds its reply, on either answer mode. A probe reaches
  /// the result cache and OnAnswerServed, so it stays inline.
  bool store_only() const override { return !cache_probe_enabled(); }

  uint64_t query_id() const { return query_id_; }
  const std::string& keyword() const { return keyword_; }

  /// Arms the cache-probe hop step (result-cache subsystem): the agent
  /// carries the base node's last known IndexEpoch per responder, in
  /// ascending node order. At each node it first probes the local result
  /// cache, and when the base's known epoch still matches the store it
  /// answers with a tiny "not-modified" reply instead of re-shipping the
  /// items.
  void EnableCacheProbe(std::vector<KnownEpoch> known_epochs) {
    features_ |= kFeatureCacheProbe;
    known_epochs_ = std::move(known_epochs);
  }

  bool cache_probe_enabled() const {
    return (features_ & kFeatureCacheProbe) != 0;
  }

  /// Arms the index-backed search path: at each node the agent answers
  /// from Storm::IndexSearch (CPU charged per posting touched) instead
  /// of the full per-object scan. A node whose store has no index falls
  /// back to the scan path, so mixed fleets stay correct.
  void EnableIndexSearch() { features_ |= kFeatureIndexSearch; }

  bool index_search_enabled() const {
    return (features_ & kFeatureIndexSearch) != 0;
  }

  /// Query id, keyword, answer mode, the sender's per-object cost and
  /// descriptor size; then, only when a feature is armed (so feature-off
  /// transfers stay byte-identical to older builds), the feature bitmask,
  /// the probe section (the sender's probe cost and the known epochs) and
  /// the index section (the sender's per-posting cost).
  static Status Wire(auto& m, auto& io) {
    int64_t object_cost = net::kPerObjectMatchCost;
    uint64_t descriptor_bytes = net::kAnswerDescriptorBytes;
    BP_RETURN_IF_ERROR(io(
        m.query_id_, m.keyword_,
        wire::Enum(m.mode_, AnswerMode::kDirect, AnswerMode::kIndicate),
        object_cost, wire::Varint(descriptor_bytes)));
    if (!io.Optional(m.features_ != 0)) return Status::OK();
    // Two feature bits: a present bitmask lies in [1, 3].
    BP_RETURN_IF_ERROR(
        io(wire::Enum(m.features_, kFeatureCacheProbe,
                      kFeatureCacheProbe | kFeatureIndexSearch)));
    if ((m.features_ & kFeatureCacheProbe) != 0) {
      int64_t probe_cost = net::kCacheProbeCost;
      BP_RETURN_IF_ERROR(io(probe_cost, m.known_epochs_));
    }
    if ((m.features_ & kFeatureIndexSearch) == 0) return Status::OK();
    int64_t posting_cost = net::kPerPostingCost;
    return io(posting_cost);
  }
  /// Known epochs name each node once, in ascending order.
  Status Check() const;

 private:
  static constexpr uint8_t kFeatureCacheProbe = 0x01;
  static constexpr uint8_t kFeatureIndexSearch = 0x02;

  /// Runs the local store lookup at the visited node: the index path
  /// when armed and available, else the paper's full scan. Charges CPU.
  Result<std::vector<storm::ObjectId>> FindMatches(agent::AgentContext& ctx,
                                                   storm::Storm* storage);

  /// The cache-probe hop step's lookup: the local result cache's slice of
  /// `key` when it is current at `index_epoch`, else FindMatches, whose
  /// answer (empty or not) is cached.
  Result<std::vector<storm::ObjectId>> ProbeMatches(agent::AgentContext& ctx,
                                                    storm::Storm* storage,
                                                    uint64_t index_epoch,
                                                    const std::string& key);

  uint64_t query_id_ = 0;
  std::string keyword_;
  AnswerMode mode_ = AnswerMode::kDirect;
  /// Armed optional features (kFeature* bits).
  uint8_t features_ = 0;
  std::vector<KnownEpoch> known_epochs_;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_SEARCH_AGENT_H_
