#ifndef BESTPEER_LIGLO_LIGLO_CLIENT_H_
#define BESTPEER_LIGLO_LIGLO_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "liglo/bpid.h"
#include "liglo/ip_directory.h"
#include "liglo/liglo_protocol.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace bestpeer::liglo {

/// Client-side knobs.
struct LigloClientOptions {
  /// Requests with no response within this window fail as Unavailable
  /// (covers LIGLO-server failure: peers keep working, paper §3.4).
  SimTime request_timeout = Seconds(2);

  /// Resends after a timeout for register/resolve/peers requests before
  /// the callback fails (update notices stay fire-once). 0 keeps the
  /// single-attempt behaviour; under message loss, retries are what let a
  /// node (re)join at all. Resends back off exponentially from 200 ms
  /// with +/-20% deterministic jitter per client.
  int max_retries = 0;

  /// Metrics sink (not owned; must outlive the client). nullptr routes
  /// increments to no-op handles.
  metrics::Registry* metrics = nullptr;
};

/// Node-side LIGLO stub: registration, address updates, BPID resolution,
/// and the rejoin protocol of §2. Also answers the server's liveness
/// pings. All calls are asynchronous; callbacks fire from the simulator.
class LigloClient {
 public:
  struct RegisterOutcome {
    Bpid bpid;
    std::vector<PeerEntry> peers;
  };
  struct ResolveOutcome {
    PeerState state = PeerState::kUnknown;
    IpAddress ip = kInvalidIp;
  };
  /// One rejoin result per queried peer, in query order.
  struct RejoinOutcome {
    std::vector<ResolveOutcome> peers;
  };

  using RegisterCallback = std::function<void(Result<RegisterOutcome>)>;
  using StatusCallback = std::function<void(Status)>;
  using ResolveCallback = std::function<void(Result<ResolveOutcome>)>;
  using RejoinCallback = std::function<void(Result<RejoinOutcome>)>;

  /// `dispatcher` must be this node's dispatcher (on the same transport).
  /// `ips` is used to dial LIGLO servers (their ids are fixed node ids)
  /// and answered pings.
  LigloClient(net::Transport* transport, net::Dispatcher* dispatcher,
              IpDirectory* ips, LigloClientOptions options = {});

  LigloClient(const LigloClient&) = delete;
  LigloClient& operator=(const LigloClient&) = delete;

  /// Registers with the LIGLO server at node `liglo_server`, announcing
  /// `my_ip`. On success the client remembers its BPID and home server.
  void Register(NodeId liglo_server, IpAddress my_ip,
                RegisterCallback callback);

  /// Tries each server in order until one accepts (paper §3.4: a full
  /// LIGLO rejects new registrations and "the node has to seek another
  /// LIGLO"). Fails with ResourceExhausted when every server rejects, or
  /// with the last error when all are unreachable.
  void RegisterWithFallback(const std::vector<NodeId>& servers,
                            IpAddress my_ip, RegisterCallback callback);

  /// Reports the current address (and online state) to the home LIGLO.
  void UpdateAddress(IpAddress my_ip, bool online, StatusCallback callback);

  /// Resolves a peer's current address via the peer's home LIGLO
  /// (identified by bpid.liglo_id, a fixed address).
  void Resolve(const Bpid& peer, ResolveCallback callback);

  using PeersCallback =
      std::function<void(Result<std::vector<PeerEntry>>)>;

  /// Asks the home LIGLO for a fresh sample of online members — used to
  /// replace departed or refusing peers. Requires prior registration.
  void DiscoverPeers(PeersCallback callback);

  /// The full rejoin protocol of §2: push our new IP to our home LIGLO,
  /// then resolve each peer in `peers` via its own home LIGLO.
  void Rejoin(IpAddress my_ip, const std::vector<Bpid>& peers,
              RejoinCallback callback);

  /// Our assigned BPID (invalid before successful registration).
  const Bpid& bpid() const { return bpid_; }
  bool registered() const { return bpid_.IsValid(); }

  /// Timeout windows that expired (each failed attempt counts once).
  uint64_t timeouts() const { return timeouts_.value(); }
  /// Resends performed after a timeout.
  uint64_t retries() const { return retries_.value(); }
  /// Replies that arrived after their request had already timed out (or
  /// been answered by an earlier attempt); ignored quietly.
  uint64_t late_replies() const { return late_replies_.value(); }

 private:
  enum class PendingKind { kRegister, kUpdate, kResolve, kPeers };
  struct Pending {
    PendingKind kind;
    RegisterCallback on_register;
    StatusCallback on_status;
    ResolveCallback on_resolve;
    PeersCallback on_peers;
    /// Request wire state kept for resends.
    NodeId server = kInvalidNode;
    uint32_t msg_type = 0;
    Bytes payload;
    int attempt = 0;
  };

  void OnRegisterResp(const net::Message& msg);
  void OnUpdateResp(const net::Message& msg);
  void OnResolveResp(const net::Message& msg);
  void OnPeersResp(const net::Message& msg);
  void OnPing(const net::Message& msg);

  /// Records the pending request and fires its first attempt.
  void StartRequest(uint64_t id, Pending pending);
  /// Puts the request's current attempt on the wire and arms its timeout.
  void SendAttempt(uint64_t id);
  /// Counts a reply whose request already timed out or was answered.
  void NoteLateReply() { late_replies_.Increment(); }
  void ArmTimeout(uint64_t id);
  Pending TakePending(uint64_t id, bool* found);
  /// Whether a timed-out request of this kind is resent.
  static bool Retryable(PendingKind kind) {
    return kind != PendingKind::kUpdate;
  }

  net::Transport* transport_;
  NodeId node_;
  IpDirectory* ips_;
  LigloClientOptions options_;
  Rng jitter_rng_;

  Bpid bpid_;
  NodeId home_server_ = kInvalidNode;
  IpAddress current_ip_ = kInvalidIp;

  uint64_t next_request_id_ = 1;
  std::map<uint64_t, Pending> pending_;
  metrics::Counter timeouts_;
  metrics::Counter retries_;
  metrics::Counter late_replies_;
};

}  // namespace bestpeer::liglo

#endif  // BESTPEER_LIGLO_LIGLO_CLIENT_H_
