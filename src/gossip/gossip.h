#ifndef BESTPEER_GOSSIP_GOSSIP_H_
#define BESTPEER_GOSSIP_GOSSIP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "gossip/gossip_frame.h"
#include "net/transport.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace bestpeer::gossip {

struct GossipOptions {
  /// Peers contacted per round (the epidemic branching factor).
  size_t fanout = 2;
  /// Time between two rounds while rumors are hot.
  SimTime round_interval = Millis(2);
  /// Rounds a new or updated item stays hot (is actively pushed) before
  /// the agent goes quiescent. Redundancy against message loss.
  uint32_t hot_rounds = 3;
  /// Seed for the deterministic peer-selection stream. The agent mixes
  /// in the transport's node id, so one fleet-wide seed still gives
  /// every node an independent stream.
  uint64_t seed = 1;
  /// Metrics sink (not owned; may be null).
  metrics::Registry* metrics = nullptr;
};

/// Rumor-mongering anti-entropy agent: one per node, disseminating
/// versioned facts (StorM IndexEpoch bumps, replica-lease grant/expiry
/// digests) through seeded, fanout-bounded push-pull rounds.
///
/// Round structure: while any item is hot, a deterministic timer fires
/// every `round_interval`; the agent picks `fanout` peers (seeded
/// shuffle) and pushes its hot items to each (rumor frames stay small —
/// cold state never rides along). A receiver applies every item that is
/// newer than its local version (duplicate suppression is the version
/// compare), re-marks freshly applied items hot (the rumor spreads
/// onward), and answers a push — never a reply — with newer versions of
/// the offered items (the pull half, which is what converges a healed
/// partition once someone re-announces). When every item has been pushed
/// `hot_rounds` times the timer is simply not re-armed, so a simulated
/// run drains to idle; the next local announce (or peer change with
/// rumors pending) re-arms it.
///
/// Single-threaded like the rest of the protocol stack: all entry
/// points run on the transport's delivery thread.
class GossipAgent {
 public:
  GossipAgent(net::Transport* transport, GossipOptions options);
  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  /// Supplies the peers the agent may gossip with (the node's direct
  /// peers). Must be set before any announce arrives.
  void SetPeerProvider(std::function<std::vector<NodeId>()> provider);

  /// Fires once for every item newly applied from a peer (not for local
  /// announces). The node hooks cache pre-invalidation here.
  void SetApplyHook(std::function<void(const GossipItem&)> hook);

  // --- local facts ------------------------------------------------------

  /// This node's StorM IndexEpoch moved (monotonic; stale calls are
  /// suppressed like any other duplicate).
  void AnnounceEpoch(uint64_t index_epoch);

  /// This node granted `holder` a replica lease on `object_id` at
  /// `source_epoch`.
  void AnnounceLeaseGrant(uint64_t object_id, NodeId holder,
                          uint64_t source_epoch);

  /// This node's lease on `object_id` (a replica it held) ended —
  /// TTL expiry or revocation at `generation`.
  void AnnounceLeaseExpire(uint64_t object_id, uint64_t generation);

  /// Re-arms the round timer when rumors are pending — call after the
  /// direct-peer set gains members (announces made while isolated stay
  /// hot but cannot schedule rounds).
  void NotifyPeersChanged();

  /// Wire entry point: the node's dispatcher routes kGossipMsgType here.
  void OnMessage(const net::Message& msg);

  // --- introspection ----------------------------------------------------

  /// Last known IndexEpoch of `origin` (0 = unknown). Includes self.
  uint64_t EpochOf(NodeId origin) const;

  /// Every known (origin -> IndexEpoch) pair.
  std::map<NodeId, uint64_t> KnownEpochs() const;

  /// True while a lease grant for (object, holder) is live (granted and
  /// not expired) as far as gossip knows.
  bool LeaseLive(uint64_t object_id, NodeId holder) const;

  size_t known_items() const { return state_.size(); }
  uint64_t rounds() const { return rounds_.value(); }
  uint64_t frames_sent() const { return frames_sent_.value(); }
  uint64_t frames_received() const { return frames_received_.value(); }
  uint64_t items_applied() const { return items_applied_.value(); }
  uint64_t duplicates() const { return duplicates_.value(); }
  uint64_t decode_errors() const { return decode_errors_.value(); }
  /// True when no round timer is armed (all rumors cold).
  bool quiescent() const { return !timer_armed_; }

 private:
  /// Version-vector key: (kind, origin, subject, holder).
  using Key = std::tuple<uint8_t, uint32_t, uint64_t, uint32_t>;

  struct Entry {
    uint64_t version = 0;
    uint64_t payload = 0;
    /// Rounds this item will still be pushed in; 0 = cold.
    uint32_t hot = 0;
  };

  static Key KeyOf(const GossipItem& item);
  GossipItem ItemOf(const Key& key, const Entry& entry) const;

  /// Applies `item` if newer; returns true when the state changed.
  /// Freshly applied items are marked hot.
  bool Upsert(const GossipItem& item);

  /// Records a locally originated fact and re-arms the timer.
  void AnnounceLocal(const GossipItem& item);

  bool AnyHot() const;
  void ArmTimer();
  void RunRound();
  void SendFrame(NodeId dst, GossipFrame frame);

  net::Transport* transport_;
  GossipOptions options_;
  NodeId node_;
  Rng rng_;

  std::function<std::vector<NodeId>()> peer_provider_;
  std::function<void(const GossipItem&)> apply_hook_;

  std::map<Key, Entry> state_;
  /// Highest version each peer has provably shown it holds (by sending
  /// it to us) — rumor frames never re-offer those, so saturated items
  /// stop costing wire. Confirmed knowledge only: our own sends can be
  /// lost, so they are never recorded here.
  std::map<NodeId, std::map<Key, uint64_t>> peer_known_;
  /// Monotonic sequence versioning this node's lease facts.
  uint64_t lease_seq_ = 0;
  bool timer_armed_ = false;

  /// Also the round number each frame carries.
  metrics::Counter rounds_;
  metrics::Counter frames_sent_;
  metrics::Counter frames_received_;
  metrics::Counter items_applied_;
  metrics::Counter duplicates_;
  metrics::Counter decode_errors_;

  metrics::Counter* items_sent_c_ = metrics::Counter::Noop();
  metrics::Gauge* known_items_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::gossip

#endif  // BESTPEER_GOSSIP_GOSSIP_H_
