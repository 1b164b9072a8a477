#ifndef BESTPEER_CORE_SEARCH_AGENT_H_
#define BESTPEER_CORE_SEARCH_AGENT_H_

#include <map>
#include <string>
#include <utility>

#include "agent/agent.h"
#include "core/config.h"
#include "core/messages.h"

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
/// Carried state: query id, keyword and answer mode. The encoding also
/// carries the sender's cost-model values (per-object cost, descriptor
/// size, and the probe / per-posting cost of an armed option), but the
/// agent executes with the visited node's net/cost_model.h constants:
/// LoadState reads the carried values and discards them, so a hostile
/// sender cannot size a reply or set a node's CPU charge.
class SearchAgent : public agent::Agent {
 public:
  SearchAgent() = default;
  SearchAgent(uint64_t query_id, std::string keyword, AnswerMode mode)
      : query_id_(query_id), keyword_(std::move(keyword)), mode_(mode) {}

  std::string_view class_name() const override { return kSearchAgentClass; }
  void SaveState(BinaryWriter& writer) const override;
  Status LoadState(BinaryReader& reader) override;
  Status Execute(agent::AgentContext& ctx) override;
  /// Without a cache probe the agent only scans (or index-searches) the
  /// store and builds its reply, on either answer mode. A probe reaches
  /// the result cache and OnAnswerServed, so it stays inline.
  bool store_only() const override { return !cache_probe_; }

  uint64_t query_id() const { return query_id_; }
  const std::string& keyword() const { return keyword_; }

  /// Arms the cache-probe hop step (result-cache subsystem): the agent
  /// carries the base node's last known IndexEpoch per responder. At each
  /// node it first probes the local result cache, and when the base's
  /// known epoch still matches the store it answers with a tiny
  /// "not-modified" reply instead of re-shipping the items.
  void EnableCacheProbe(std::map<uint32_t, uint64_t> known_epochs) {
    cache_probe_ = true;
    known_epochs_ = std::move(known_epochs);
  }

  bool cache_probe_enabled() const { return cache_probe_; }

  /// Arms the index-backed search path: at each node the agent answers
  /// from Storm::IndexSearch (CPU charged per posting touched) instead
  /// of the full per-object scan. A node whose store has no index falls
  /// back to the scan path, so mixed fleets stay correct.
  void EnableIndexSearch() { use_index_ = true; }

  bool index_search_enabled() const { return use_index_; }

 private:
  /// Trailing-section flag bits (see SaveState).
  static constexpr uint8_t kFlagCacheProbe = 0x01;
  static constexpr uint8_t kFlagIndexSearch = 0x02;

  /// Runs the local store lookup at the visited node: the index path
  /// when armed and available, else the paper's full scan. Charges CPU
  /// and reports the store-size hint for the result header.
  Result<std::vector<storm::ObjectId>> FindMatches(agent::AgentContext& ctx,
                                                   storm::Storm* storage,
                                                   uint32_t* store_size_hint);

  uint64_t query_id_ = 0;
  std::string keyword_;
  AnswerMode mode_ = AnswerMode::kDirect;
  /// Optional trailing state, serialized only when armed so cache-off
  /// agent transfers stay byte-identical to older builds.
  bool cache_probe_ = false;
  std::map<uint32_t, uint64_t> known_epochs_;
  /// Index-path state (trailing section, bit kFlagIndexSearch).
  bool use_index_ = false;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_SEARCH_AGENT_H_
