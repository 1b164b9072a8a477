#ifndef BESTPEER_LIGLO_LIGLO_PROTOCOL_H_
#define BESTPEER_LIGLO_LIGLO_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "liglo/bpid.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::liglo {

/// Wire message types of the LIGLO protocol.
constexpr uint32_t kLigloRegisterReq = 0x4C490001;
constexpr uint32_t kLigloRegisterResp = 0x4C490002;
constexpr uint32_t kLigloUpdateReq = 0x4C490003;
constexpr uint32_t kLigloUpdateResp = 0x4C490004;
constexpr uint32_t kLigloResolveReq = 0x4C490005;
constexpr uint32_t kLigloResolveResp = 0x4C490006;
constexpr uint32_t kLigloPing = 0x4C490007;
constexpr uint32_t kLigloPong = 0x4C490008;
constexpr uint32_t kLigloPeersReq = 0x4C490009;
constexpr uint32_t kLigloPeersResp = 0x4C49000A;

/// A (BPID, current IP) pair as returned in registration responses —
/// the initial direct peers handed to a fresh member (paper §2).
struct PeerEntry {
  Bpid bpid;
  IpAddress ip = kInvalidIp;

  static Status Wire(auto& m, auto& io) { return io(m.bpid, m.ip); }
};

/// Registration request: a new node asks a LIGLO server for a BPID.
struct RegisterRequest {
  uint64_t request_id = 0;
  IpAddress ip = kInvalidIp;

  static Status Wire(auto& m, auto& io) { return io(m.request_id, m.ip); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RegisterRequest> Decode(const Bytes& data) {
    return wire::Decode<RegisterRequest>(data);
  }
};

/// Registration response. `accepted` is false when the server is at
/// capacity (the node must try another LIGLO, paper §3.4).
struct RegisterResponse {
  uint64_t request_id = 0;
  bool accepted = false;
  Bpid bpid;
  std::vector<PeerEntry> peers;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id, m.accepted, m.bpid, m.peers);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RegisterResponse> Decode(const Bytes& data) {
    return wire::Decode<RegisterResponse>(data);
  }
};

/// Address update: a member reports its current IP (and online state)
/// when (re)joining or gracefully leaving.
struct UpdateRequest {
  uint64_t request_id = 0;
  Bpid bpid;
  IpAddress ip = kInvalidIp;
  bool online = true;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id, m.bpid, m.ip, m.online);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<UpdateRequest> Decode(const Bytes& data) {
    return wire::Decode<UpdateRequest>(data);
  }
};

struct UpdateResponse {
  uint64_t request_id = 0;
  bool ok = false;

  static Status Wire(auto& m, auto& io) { return io(m.request_id, m.ok); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<UpdateResponse> Decode(const Bytes& data) {
    return wire::Decode<UpdateResponse>(data);
  }
};

/// BPID resolution request, sent to the *peer's* home LIGLO.
struct ResolveRequest {
  uint64_t request_id = 0;
  Bpid bpid;

  static Status Wire(auto& m, auto& io) { return io(m.request_id, m.bpid); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ResolveRequest> Decode(const Bytes& data) {
    return wire::Decode<ResolveRequest>(data);
  }
};

/// Liveness/address state of a resolved peer.
enum class PeerState : uint8_t { kOnline = 0, kOffline = 1, kUnknown = 2 };

struct ResolveResponse {
  uint64_t request_id = 0;
  PeerState state = PeerState::kUnknown;
  IpAddress ip = kInvalidIp;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id,
              wire::Enum(m.state, PeerState::kOnline, PeerState::kUnknown),
              m.ip);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ResolveResponse> Decode(const Bytes& data) {
    return wire::Decode<ResolveResponse>(data);
  }
};

/// Peer-discovery request: an already registered member asks its LIGLO
/// for fresh peers (used to replace departed/refusing peers, §2: "it can
/// simply replace those peers by new peers that it encounters").
struct PeersRequest {
  uint64_t request_id = 0;
  Bpid requester;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id, m.requester);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<PeersRequest> Decode(const Bytes& data) {
    return wire::Decode<PeersRequest>(data);
  }
};

struct PeersResponse {
  uint64_t request_id = 0;
  std::vector<PeerEntry> peers;

  static Status Wire(auto& m, auto& io) { return io(m.request_id, m.peers); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<PeersResponse> Decode(const Bytes& data) {
    return wire::Decode<PeersResponse>(data);
  }
};

/// Liveness probe used by the server's periodic validity sweep.
struct PingMessage {
  uint64_t nonce = 0;

  static Status Wire(auto& m, auto& io) { return io(m.nonce); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<PingMessage> Decode(const Bytes& data) {
    return wire::Decode<PingMessage>(data);
  }
};

struct PongMessage {
  uint64_t nonce = 0;
  Bpid bpid;
  IpAddress ip = kInvalidIp;

  static Status Wire(auto& m, auto& io) { return io(m.nonce, m.bpid, m.ip); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<PongMessage> Decode(const Bytes& data) {
    return wire::Decode<PongMessage>(data);
  }
};

}  // namespace bestpeer::liglo

#endif  // BESTPEER_LIGLO_LIGLO_PROTOCOL_H_
