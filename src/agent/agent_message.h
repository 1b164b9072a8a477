#ifndef BESTPEER_AGENT_AGENT_MESSAGE_H_
#define BESTPEER_AGENT_AGENT_MESSAGE_H_

#include <cstdint>
#include <string>

#include "util/ids.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::agent {

/// Wire form of a travelling agent. TTL and Hops are carried redundantly,
/// as in the paper ("the redundant use of TTL and Hops together is to
/// enable hosts to drop any incoming agent that already has a copy").
struct AgentMessage {
  /// Shared by all clones of one launch; used for duplicate dropping.
  uint64_t agent_id = 0;
  /// Registered class name (the "code" identity).
  std::string class_name;
  /// The base node that launched the agent.
  NodeId origin = kInvalidNode;
  /// Remaining time-to-live; an agent arriving with ttl 0 still executes
  /// but is not forwarded further.
  uint16_t ttl = 0;
  /// Overlay hops travelled so far.
  uint16_t hops = 0;
  /// Serialized agent state (Agent::SaveState output).
  Bytes state;

  static Status Wire(auto& m, auto& io) {
    return io(m.agent_id, m.class_name, m.origin, m.ttl, m.hops, m.state);
  }

  /// Encodes to bytes (before transport compression).
  Bytes Encode() const { return wire::Encode(*this); }

  /// Decodes a buffer produced by Encode.
  static Result<AgentMessage> Decode(const Bytes& data) {
    return wire::Decode<AgentMessage>(data);
  }
};

}  // namespace bestpeer::agent

#endif  // BESTPEER_AGENT_AGENT_MESSAGE_H_
