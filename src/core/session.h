#ifndef BESTPEER_CORE_SESSION_H_
#define BESTPEER_CORE_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/reconfig_strategy.h"
#include "net/transport.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::core {

/// One response-related event observed by the query initiator.
struct ResponseEvent {
  SimTime time = 0;
  NodeId node = kInvalidNode;
  uint16_t hops = 0;
  size_t answers = 0;
};

/// Book-keeping for one query issued by a node: when which peer responded
/// with how many answers. The evaluation metrics of §4 (completion time,
/// response rate, answers-over-time) and the reconfiguration observations
/// of §3.3 all read from here.
class QuerySession {
 public:
  QuerySession() = default;
  QuerySession(uint64_t query_id, std::string keyword, AnswerMode mode,
               SimTime start_time)
      : query_id_(query_id),
        keyword_(std::move(keyword)),
        mode_(mode),
        start_time_(start_time) {}

  /// Records a result message (mode 1: content; mode 2: descriptors).
  void RecordResult(const ResponseEvent& event) {
    responses_.push_back(event);
  }

  /// Records a result message together with the matched object ids, so
  /// answers can be deduplicated across replicas of the same object.
  void RecordResultWithIds(const ResponseEvent& event,
                           const std::vector<uint64_t>& object_ids) {
    responses_.push_back(event);
    reported_ids_.insert(reported_ids_.end(), object_ids.begin(),
                         object_ids.end());
  }

  /// Distinct objects reported across all responses (replicas of one
  /// object count once). Zero when responders did not report ids.
  size_t unique_answers() const;

  /// Records a completed mode-2 content fetch.
  void RecordFetch(const ResponseEvent& event) { fetches_.push_back(event); }

  uint64_t query_id() const { return query_id_; }
  const std::string& keyword() const { return keyword_; }
  AnswerMode mode() const { return mode_; }
  SimTime start_time() const { return start_time_; }

  const std::vector<ResponseEvent>& responses() const { return responses_; }
  const std::vector<ResponseEvent>& fetches() const { return fetches_; }

  /// Total answers *received* (mode 1: result items; mode 2: fetched
  /// contents).
  size_t total_answers() const;

  /// Total matches indicated by responders (counts result items in both
  /// modes).
  size_t total_indicated() const;

  /// Distinct responding nodes.
  size_t responder_count() const;

  /// Time from issue to the last relevant event (0 if nothing arrived) —
  /// the paper's completion time, "when all answers have been received".
  SimTime completion_time() const;

  /// Per-responder observations feeding the reconfiguration strategy.
  std::vector<PeerObservation> Observations() const;

  /// Closes the session at its deadline: the answer set is frozen and
  /// later results must be dropped by the caller (counted as late).
  void Finalize() { finalized_ = true; }
  bool finalized() const { return finalized_; }

 private:
  uint64_t query_id_ = 0;
  std::string keyword_;
  AnswerMode mode_ = AnswerMode::kDirect;
  SimTime start_time_ = 0;
  std::vector<ResponseEvent> responses_;
  std::vector<ResponseEvent> fetches_;
  /// Every reported object id, duplicates included: 8 bytes an answer
  /// for the life of the session, which stays open while late results
  /// can still arrive.
  std::vector<uint64_t> reported_ids_;
  bool finalized_ = false;
};

/// The queries one node issued, by id: the kMaxSessions newest. Every
/// result path finds its session through Live, so a result for an unknown
/// (never issued, or forgotten) query is ignored and one for a finalized
/// query is dropped and counted as late.
class SessionTable {
 public:
  /// Sessions kept. Opening one more forgets the oldest, so a node that
  /// serves queries for hours holds a bounded table.
  static constexpr size_t kMaxSessions = 256;

  /// `finalize` closes a query when its `deadline` elapses (0 = never).
  SessionTable(net::Transport* transport, SimTime deadline,
               metrics::Registry* metrics,
               std::function<void(uint64_t)> finalize);

  /// A fresh query id: the node id in the high 32 bits.
  uint64_t NextId() {
    return (static_cast<uint64_t>(transport_->local()) << 32) | ++counter_;
  }
  /// Opens the session of a query being issued.
  void Open(uint64_t query_id, std::string keyword, AnswerMode mode);
  /// Arms the deadline timer for `query_id` (no-op when disabled).
  void ArmDeadline(uint64_t query_id);

  /// The open session of `query_id`, or nullptr when it is unknown or
  /// finalized (a finalized one counts the caller's result as late).
  QuerySession* Live(uint64_t query_id);
  const QuerySession* Find(uint64_t query_id) const;
  /// Freezes the session's answer set. Returns it, or nullptr when it is
  /// unknown or already final.
  const QuerySession* Finalize(uint64_t query_id);

  size_t inflight() const;
  /// Results that arrived after their session was finalized (dropped).
  uint64_t late_results() const { return late_results_.value(); }
  /// Sessions closed by a deadline.
  uint64_t sessions_finalized() const { return sessions_finalized_.value(); }

 private:
  net::Transport* transport_;
  SimTime deadline_;
  std::function<void(uint64_t)> finalize_;
  std::map<uint64_t, QuerySession> sessions_;
  uint32_t counter_ = 0;
  metrics::Counter late_results_;
  metrics::Counter sessions_finalized_;
  metrics::Counter* queries_issued_c_ = metrics::Counter::Noop();
  metrics::Gauge* inflight_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_SESSION_H_
