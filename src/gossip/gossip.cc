#include "gossip/gossip.h"

#include <algorithm>
#include <utility>

namespace bestpeer::gossip {

GossipAgent::GossipAgent(net::Transport* transport, GossipOptions options)
    : transport_(transport),
      options_(options),
      node_(transport->local()),
      // One fleet-wide seed still gives every node an independent,
      // reproducible selection stream (the +1 keeps node 0 distinct from
      // an unmixed seed).
      rng_(options.seed ^ (0x9E3779B97F4A7C15ULL * (node_ + 1))) {
  if (options_.fanout == 0) options_.fanout = 1;
  if (options_.hot_rounds == 0) options_.hot_rounds = 1;
  if (options_.metrics != nullptr) {
    // Fleet-shared instruments, same convention as core.* — every agent
    // registered against one registry feeds the same totals.
    auto* m = options_.metrics;
    rounds_.set_total(m->GetCounter("gossip.rounds"));
    frames_sent_.set_total(m->GetCounter("gossip.frames_sent"));
    frames_received_.set_total(m->GetCounter("gossip.frames_received"));
    items_sent_c_ = m->GetCounter("gossip.items_sent");
    items_applied_.set_total(m->GetCounter("gossip.items_applied"));
    duplicates_.set_total(m->GetCounter("gossip.duplicates"));
    decode_errors_.set_total(m->GetCounter("gossip.decode_errors"));
    known_items_g_ = m->GetGauge("gossip.known_items");
  }
}

void GossipAgent::SetPeerProvider(
    std::function<std::vector<NodeId>()> provider) {
  peer_provider_ = std::move(provider);
}

void GossipAgent::SetApplyHook(std::function<void(const GossipItem&)> hook) {
  apply_hook_ = std::move(hook);
}

GossipAgent::Key GossipAgent::KeyOf(const GossipItem& item) {
  return Key(static_cast<uint8_t>(item.kind), item.origin, item.subject,
             item.holder);
}

GossipItem GossipAgent::ItemOf(const Key& key, const Entry& entry) const {
  GossipItem item;
  item.kind = static_cast<ItemKind>(std::get<0>(key));
  item.origin = std::get<1>(key);
  item.subject = std::get<2>(key);
  item.holder = std::get<3>(key);
  item.version = entry.version;
  item.payload = entry.payload;
  return item;
}

bool GossipAgent::Upsert(const GossipItem& item) {
  auto [it, inserted] = state_.try_emplace(KeyOf(item));
  if (!inserted && it->second.version >= item.version) return false;
  it->second.version = item.version;
  it->second.payload = item.payload;
  it->second.hot = options_.hot_rounds;
  // The gauge is fleet-shared, so deltas (not Set) keep it a sum.
  if (inserted) known_items_g_->Add(1);
  return true;
}

void GossipAgent::AnnounceLocal(const GossipItem& item) {
  if (!Upsert(item)) return;
  ArmTimer();
}

void GossipAgent::AnnounceEpoch(uint64_t index_epoch) {
  GossipItem item;
  item.kind = ItemKind::kIndexEpoch;
  item.origin = node_;
  item.version = index_epoch;
  item.payload = index_epoch;
  AnnounceLocal(item);
}

void GossipAgent::AnnounceLeaseGrant(uint64_t object_id, NodeId holder,
                                     uint64_t source_epoch) {
  GossipItem item;
  item.kind = ItemKind::kLeaseGrant;
  item.origin = node_;
  item.subject = object_id;
  item.holder = holder;
  item.version = ++lease_seq_;
  item.payload = source_epoch;
  AnnounceLocal(item);
}

void GossipAgent::AnnounceLeaseExpire(uint64_t object_id,
                                      uint64_t generation) {
  GossipItem item;
  item.kind = ItemKind::kLeaseExpire;
  item.origin = node_;
  item.subject = object_id;
  item.holder = node_;
  item.version = ++lease_seq_;
  item.payload = generation;
  AnnounceLocal(item);
}

void GossipAgent::NotifyPeersChanged() {
  if (AnyHot()) ArmTimer();
}

bool GossipAgent::AnyHot() const {
  for (const auto& [key, entry] : state_) {
    if (entry.hot > 0) return true;
  }
  return false;
}

void GossipAgent::ArmTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  transport_->clock().ScheduleAfter(options_.round_interval,
                                    [this] { RunRound(); });
}

void GossipAgent::RunRound() {
  timer_armed_ = false;
  if (!AnyHot()) return;
  std::vector<NodeId> peers =
      peer_provider_ ? peer_provider_() : std::vector<NodeId>();
  if (peers.empty()) {
    // Isolated: rumors stay hot but we stop burning timer events.
    // NotifyPeersChanged() re-arms when the peer set recovers.
    return;
  }
  rounds_.Increment();

  // Rumor frames carry only the hot items the target is not already
  // known to hold: full-state pushes would make every mutation cost
  // O(known items × fanout × hot_rounds) wire bytes, and re-offering a
  // peer what it told us is pure waste. Cold or filtered state still
  // converges through the pull half of OnMessage.
  rng_.Shuffle(peers);
  size_t targets = std::min(options_.fanout, peers.size());
  for (size_t i = 0; i < targets; ++i) {
    GossipFrame frame;
    frame.sender = node_;
    frame.round = rounds_.value();
    auto known_it = peer_known_.find(peers[i]);
    for (const auto& [key, entry] : state_) {
      if (entry.hot == 0) continue;
      if (known_it != peer_known_.end()) {
        auto seen = known_it->second.find(key);
        if (seen != known_it->second.end() &&
            seen->second >= entry.version) {
          continue;
        }
      }
      frame.items.push_back(ItemOf(key, entry));
    }
    if (!frame.items.empty()) SendFrame(peers[i], std::move(frame));
  }
  for (auto& [key, entry] : state_) {
    if (entry.hot > 0) --entry.hot;
  }
  if (AnyHot()) ArmTimer();
}

void GossipAgent::SendFrame(NodeId dst, GossipFrame frame) {
  frames_sent_.Increment();
  items_sent_c_->Add(frame.items.size());
  transport_->RecordFlight({.type = obs::EventType::kGossipSend,
                            .peer = dst,
                            .a = frame.items.size(),
                            .b = frame.round});
  transport_->Send(dst, kGossipMsgType, EncodeGossipFrame(frame));
}

void GossipAgent::OnMessage(const net::Message& msg) {
  auto decoded = DecodeGossipFrame(msg.payload);
  if (!decoded.ok()) {
    decode_errors_.Increment();
    return;
  }
  frames_received_.Increment();
  const GossipFrame& frame = decoded.value();

  // Everything the sender offers, it provably holds — future rumor
  // frames to it can skip those versions.
  auto& known = peer_known_[frame.sender];
  for (const GossipItem& item : frame.items) {
    uint64_t& seen = known[KeyOf(item)];
    if (item.version > seen) seen = item.version;
  }

  // The pull half: any offered item we know a strictly newer version of
  // goes back in a single response frame. Only offered keys are
  // corrected — rumor frames carry the hot subset, so an absent key says
  // nothing about what the sender knows.
  GossipFrame reply;
  bool is_response = (frame.flags & GossipFrame::kFlagResponse) != 0;
  if (!is_response) {
    for (const GossipItem& item : frame.items) {
      auto it = state_.find(KeyOf(item));
      if (it != state_.end() && it->second.version > item.version) {
        reply.items.push_back(ItemOf(it->first, it->second));
      }
    }
  }

  for (const GossipItem& item : frame.items) {
    if (!Upsert(item)) {
      duplicates_.Increment();
      // Feedback death: the sender provably holds this exact version
      // too, so the rumor is saturating — lose interest one round early
      // rather than blindly re-pushing it hot_rounds more times. (A
      // strictly-newer local version keeps its full budget; the reply
      // below is about to correct the sender.)
      auto it = state_.find(KeyOf(item));
      if (it != state_.end() && it->second.hot > 0 &&
          it->second.version == item.version) {
        --it->second.hot;
      }
      continue;
    }
    items_applied_.Increment();
    transport_->RecordFlight({.type = obs::EventType::kGossipApply,
                              .peer = frame.sender,
                              .a = item.origin,
                              .b = item.version});
    if (apply_hook_) apply_hook_(item);
  }

  if (!is_response && !reply.items.empty()) {
    reply.sender = node_;
    reply.round = rounds_.value();
    reply.flags = GossipFrame::kFlagResponse;
    SendFrame(frame.sender, std::move(reply));
  }
  // Freshly applied items are hot again — spread the rumor onward.
  if (AnyHot()) ArmTimer();
}

uint64_t GossipAgent::EpochOf(NodeId origin) const {
  auto it = state_.find(
      Key(static_cast<uint8_t>(ItemKind::kIndexEpoch), origin, 0, 0));
  return it == state_.end() ? 0 : it->second.payload;
}

std::map<NodeId, uint64_t> GossipAgent::KnownEpochs() const {
  std::map<NodeId, uint64_t> epochs;
  for (const auto& [key, entry] : state_) {
    if (std::get<0>(key) == static_cast<uint8_t>(ItemKind::kIndexEpoch)) {
      epochs[std::get<1>(key)] = entry.payload;
    }
  }
  return epochs;
}

bool GossipAgent::LeaseLive(uint64_t object_id, NodeId holder) const {
  // A grant is live until the holder's own expiry digest is at least as
  // recent. Grant and expiry live under different keys (origin differs),
  // so liveness is the cross-key comparison done here, not in Upsert.
  bool granted = false;
  for (const auto& [key, entry] : state_) {
    if (std::get<0>(key) == static_cast<uint8_t>(ItemKind::kLeaseGrant) &&
        std::get<2>(key) == object_id && std::get<3>(key) == holder) {
      granted = true;
      break;
    }
  }
  if (!granted) return false;
  auto expire = state_.find(Key(static_cast<uint8_t>(ItemKind::kLeaseExpire),
                                holder, object_id, holder));
  return expire == state_.end();
}

}  // namespace bestpeer::gossip
