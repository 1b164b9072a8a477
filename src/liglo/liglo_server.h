#ifndef BESTPEER_LIGLO_LIGLO_SERVER_H_
#define BESTPEER_LIGLO_LIGLO_SERVER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "liglo/bpid.h"
#include "liglo/ip_directory.h"
#include "liglo/liglo_protocol.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace bestpeer::liglo {

/// LIGLO server knobs (every handled request charges
/// net::kLigloHandlingCost).
struct LigloServerOptions {
  /// Maximum members; 0 = unlimited. A full server rejects registrations
  /// (the node "has to seek another LIGLO", paper §3.4).
  size_t capacity = 0;
  /// How many (BPID, IP) peer entries a registration response carries.
  size_t initial_peer_count = 4;
  /// Seed for sampling which online members are handed out as starter
  /// peers (a random sample, so early members don't become mega-hubs).
  uint64_t sample_seed = 1;
  /// Interval of the periodic address-validity sweep; 0 disables it.
  SimTime sweep_interval = 0;
  /// How long the sweep waits for a pong before marking a member offline.
  SimTime ping_timeout = Millis(50);
};

/// A Location-Independent Global Names Lookup server (paper §3.4): issues
/// BPIDs, tracks members' current IPs and online state, answers BPID
/// resolution queries, and periodically validates member addresses with
/// pings. Any number of LIGLO servers can coexist; each only names its
/// own members (BPIDs embed the server's fixed address).
class LigloServer {
 public:
  /// Runs the server on `transport`'s node (which has a fixed, well-known
  /// address: its NodeId doubles as its LIGLO id). `dispatcher` must be
  /// the node's dispatcher; `ips` is the LAN address plane.
  LigloServer(net::Transport* transport, net::Dispatcher* dispatcher,
              IpDirectory* ips, LigloServerOptions options);

  LigloServer(const LigloServer&) = delete;
  LigloServer& operator=(const LigloServer&) = delete;

  /// Starts the periodic validity sweep (no-op if interval is 0).
  /// NOTE: while sweeping, the simulator never goes idle; drive it with
  /// RunUntil(deadline) and call StopSweep() when done.
  void StartSweep();

  /// Stops the periodic sweep (pending timers fire once more, harmlessly).
  void StopSweep() { sweeping_ = false; }

  /// The server's LIGLO id (== its fixed node id).
  uint32_t liglo_id() const { return node_; }

  /// Current member count.
  size_t member_count() const { return members_.size(); }

  /// Members currently believed online.
  size_t online_count() const;

  /// Lookup of a member's recorded state (for tests).
  Result<PeerState> MemberState(const Bpid& bpid) const;
  Result<IpAddress> MemberIp(const Bpid& bpid) const;

  uint64_t registrations() const { return registrations_; }
  uint64_t rejections() const { return rejections_; }
  uint64_t resolves_served() const { return resolves_served_; }

 private:
  struct Member {
    IpAddress ip = kInvalidIp;
    bool online = false;
    SimTime last_seen = 0;
    uint64_t pending_ping_nonce = 0;
  };

  void OnRegister(const net::Message& msg);
  void OnUpdate(const net::Message& msg);
  void OnResolve(const net::Message& msg);
  void OnPeers(const net::Message& msg);
  void OnPong(const net::Message& msg);

  /// Random sample of up to `count` online members, excluding `exclude`.
  std::vector<PeerEntry> SampleOnlineMembers(size_t count,
                                             uint32_t exclude);
  void DoSweep();

  /// Replies after charging the handling cost.
  void Reply(NodeId dst, uint32_t type, Bytes payload);

  net::Transport* transport_;
  NodeId node_;
  IpDirectory* ips_;
  LigloServerOptions options_;

  std::map<uint32_t, Member> members_;  // keyed by BPID node_id
  Rng sample_rng_{1};
  uint32_t next_member_id_ = 1;
  uint64_t next_nonce_ = 1;
  uint64_t registrations_ = 0;
  uint64_t rejections_ = 0;
  uint64_t resolves_served_ = 0;
  bool sweeping_ = false;
};

}  // namespace bestpeer::liglo

#endif  // BESTPEER_LIGLO_LIGLO_SERVER_H_
