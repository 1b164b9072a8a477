#ifndef BESTPEER_CORE_RECONFIG_STRATEGY_H_
#define BESTPEER_CORE_RECONFIG_STRATEGY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace bestpeer::core {

/// What one query taught the base node about a responding node.
struct PeerObservation {
  NodeId node = kInvalidNode;
  /// Answers the node returned for the query.
  uint64_t answers = 0;
  /// Hops value piggybacked with the answers (distance from the base).
  uint16_t hops = 0;
  /// Arrival time of the node's first result message.
  SimTime first_response = 0;
};

/// Self-reconfiguration policy (paper §3.3): after a query, choose which
/// nodes to keep as direct peers. A strategy is a name plus an order over
/// candidates, so it is a pure function of the observations and the
/// current peer set; strategies are trivially testable and nodes stay
/// autonomous (no peer-to-peer negotiation).
class ReconfigStrategy {
 public:
  /// True iff `a` is a better direct peer than `b`.
  using Better = bool (*)(const PeerObservation& a, const PeerObservation& b);

  /// A null `better` keeps the current peers (BPS).
  constexpr ReconfigStrategy(std::string_view name, Better better)
      : name_(name), better_(better) {}

  std::string_view name() const { return name_; }

  /// Returns the new direct-peer set, at most `capacity` nodes, drawn
  /// from the observed responders and the current peers. Current peers
  /// that did not respond are treated as answers=0, hops=1 candidates.
  std::vector<NodeId> SelectPeers(
      const std::vector<PeerObservation>& observations,
      const std::vector<NodeId>& current_peers, size_t capacity) const;

 private:
  std::string_view name_;
  Better better_;
};

/// The strategy registered as `name` ("maxcount", "minhops", "fastest" or
/// "none"); InvalidArgument for unknown names. Strategies are constants,
/// so the pointer stays valid for the life of the program.
Result<const ReconfigStrategy*> MakeReconfigStrategy(std::string_view name);

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_RECONFIG_STRATEGY_H_
