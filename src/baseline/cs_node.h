#ifndef BESTPEER_BASELINE_CS_NODE_H_
#define BESTPEER_BASELINE_CS_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "core/messages.h"
#include "core/session.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "storm/storm.h"
#include "util/sim_time.h"

namespace bestpeer::baseline {

/// Client/server wire message types.
constexpr uint32_t kCsQueryType = 0x43530001;
constexpr uint32_t kCsAnswerType = 0x43530002;
constexpr uint32_t kCsDoneType = 0x43530003;

/// Client/server baseline configuration. Its costs are net/cost_model.h
/// constants: the scan, index and descriptor costs BestPeer charges, plus
/// the CS query-handling and relay costs (deep paths pay the per-byte
/// relay repeatedly — the §4.3 CS degradation).
struct CsConfig {
  /// Single-thread CS (SCS): a node queries its children one at a time,
  /// waiting for each subtree to complete before contacting the next.
  /// Multi-thread CS (MCS) fans out to all children in parallel.
  bool single_thread = false;
  /// Ship full object contents in answers (the counterpart of BestPeer's
  /// answer mode 1); false returns net::kAnswerDescriptorBytes match
  /// descriptors, the counterpart of mode 2 and of the paper's
  /// search-result lists.
  bool ship_content = true;
  std::string codec = "lzss";
  /// Answer queries from Storm::IndexSearch instead of the full scan,
  /// charging per posting touched (falls back to the scan when the
  /// store has no index). Mirrors BestPeerConfig::use_index_search so
  /// the CS baseline stays comparable.
  bool use_index_search = false;
};

/// Completion-tracked query state at the base node.
class CsSession {
 public:
  CsSession() = default;
  CsSession(uint64_t query_id, SimTime start)
      : query_id_(query_id), start_(start) {}

  void RecordAnswer(const core::ResponseEvent& event) {
    answers_.push_back(event);
  }
  void MarkComplete(SimTime t) {
    complete_ = true;
    complete_time_ = t;
  }

  uint64_t query_id() const { return query_id_; }
  SimTime start_time() const { return start_; }
  bool complete() const { return complete_; }
  const std::vector<core::ResponseEvent>& answers() const { return answers_; }

  size_t total_answers() const;
  size_t responder_count() const;

  /// Completion: when all answers have been received and the Done wave
  /// closed (relayed answers can trail the Done wave slightly, so take
  /// the later of the two).
  SimTime completion_time() const;

  /// Time until the last answer arrived.
  SimTime last_answer_time() const;

 private:
  uint64_t query_id_ = 0;
  SimTime start_ = 0;
  bool complete_ = false;
  SimTime complete_time_ = 0;
  std::vector<core::ResponseEvent> answers_;
};

/// The paper's Client/Server comparison model (§4): processes can be both
/// client and server, but *answers must return along the query path* —
/// each intermediate relays its subtree's answers toward the base node
/// (footnote 3, implementation 2: relay immediately). Queries are plain
/// messages (no code shipping), so CS wins on shallow topologies and
/// degrades with depth, exactly the Fig. 5 trade-off.
class CsNode {
 public:
  static Result<std::unique_ptr<CsNode>> Create(net::Transport* transport,
                                                CsConfig config);

  CsNode(const CsNode&) = delete;
  CsNode& operator=(const CsNode&) = delete;

  /// Opens this node's storage.
  Status InitStorage(const storm::StormOptions& options);
  Status ShareObject(storm::ObjectId id, const Bytes& content);

  /// Wires a neighbour locally (call on both endpoints).
  void AddNeighborLocal(NodeId peer);
  std::vector<NodeId> Neighbors() const;

  /// Starts a query from this node (it becomes the base).
  Result<uint64_t> IssueQuery(const std::string& keyword);

  const CsSession* FindSession(uint64_t query_id) const;

  NodeId node() const { return node_; }
  storm::Storm* storage() { return storage_.get(); }
  uint64_t relayed_answers() const { return relayed_answers_; }

 private:
  /// Per-query relay state at intermediates.
  struct RelayState {
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    size_t next_child = 0;      // SCS forwarding cursor.
    size_t children_done = 0;
    bool local_done = false;
    bool done_sent = false;
    bool is_base = false;
    std::string keyword;
  };

  CsNode(net::Transport* transport, CsConfig config);
  Status Init();

  void OnQuery(const net::Message& msg);
  void OnAnswer(const net::Message& msg);
  void OnDone(const net::Message& msg);

  /// Runs the local scan, then reports answers to the parent (or session).
  void StartLocalScan(uint64_t query_id);

  /// SCS: forward to the next unqueried child; MCS: to all children.
  void AdvanceForwarding(uint64_t query_id);

  /// Sends Done upstream once the local scan and all children completed.
  void MaybeFinish(uint64_t query_id);

  void SendCompressed(NodeId dst, uint32_t type, const Bytes& payload);

  net::Transport* transport_;
  NodeId node_;
  CsConfig config_;
  std::shared_ptr<const Codec> codec_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::unique_ptr<storm::Storm> storage_;

  std::set<NodeId> neighbors_;
  std::map<uint64_t, RelayState> relays_;
  std::map<uint64_t, CsSession> sessions_;
  uint32_t query_counter_ = 0;
  uint64_t relayed_answers_ = 0;
};

}  // namespace bestpeer::baseline

#endif  // BESTPEER_BASELINE_CS_NODE_H_
