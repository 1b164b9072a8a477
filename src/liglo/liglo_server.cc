#include "liglo/liglo_server.h"

#include <utility>

#include "net/cost_model.h"
#include "util/logging.h"

namespace bestpeer::liglo {

LigloServer::LigloServer(net::Transport* transport,
                         net::Dispatcher* dispatcher, IpDirectory* ips,
                         LigloServerOptions options)
    : transport_(transport),
      node_(transport->local()),
      ips_(ips),
      options_(options),
      sample_rng_(options.sample_seed) {
  dispatcher->Register(kLigloRegisterReq,
                       [this](const net::Message& m) { OnRegister(m); });
  dispatcher->Register(kLigloUpdateReq,
                       [this](const net::Message& m) { OnUpdate(m); });
  dispatcher->Register(kLigloResolveReq,
                       [this](const net::Message& m) { OnResolve(m); });
  dispatcher->Register(kLigloPeersReq,
                       [this](const net::Message& m) { OnPeers(m); });
  dispatcher->Register(kLigloPong,
                       [this](const net::Message& m) { OnPong(m); });
}

std::vector<PeerEntry> LigloServer::SampleOnlineMembers(size_t count,
                                                        uint32_t exclude) {
  std::vector<PeerEntry> sample;
  size_t seen = 0;
  for (const auto& [id, m] : members_) {
    if (!m.online || id == exclude) continue;
    PeerEntry entry{Bpid{node_, id}, m.ip};
    if (sample.size() < count) {
      sample.push_back(entry);
    } else {
      size_t j = sample_rng_.NextBounded(seen + 1);
      if (j < count) sample[j] = entry;
    }
    ++seen;
  }
  return sample;
}

void LigloServer::OnPeers(const net::Message& msg) {
  auto req = PeersRequest::Decode(msg.payload);
  if (!req.ok()) return;
  PeersResponse resp;
  resp.request_id = req->request_id;
  resp.peers =
      SampleOnlineMembers(options_.initial_peer_count, req->requester.node_id);
  Reply(msg.src, kLigloPeersResp, resp.Encode());
}

void LigloServer::Reply(NodeId dst, uint32_t type, Bytes payload) {
  transport_->RunCpu(
      net::kLigloHandlingCost,
      [this, dst, type, payload = std::move(payload)]() mutable {
        transport_->Send(dst, type, std::move(payload));
      });
}

void LigloServer::OnRegister(const net::Message& msg) {
  auto req = RegisterRequest::Decode(msg.payload);
  if (!req.ok()) {
    BP_LOG(Warn) << "bad register request: " << req.status().ToString();
    return;
  }
  RegisterResponse resp;
  resp.request_id = req->request_id;
  if (options_.capacity != 0 && members_.size() >= options_.capacity) {
    resp.accepted = false;
    ++rejections_;
    Reply(msg.src, kLigloRegisterResp, resp.Encode());
    return;
  }
  uint32_t member_id = next_member_id_++;
  Member member;
  member.ip = req->ip;
  member.online = true;
  member.last_seen = transport_->clock().now();

  resp.accepted = true;
  resp.bpid = Bpid{node_, member_id};

  // Hand the newcomer a random sample of online members as direct peers
  // (reservoir sampling, so no member becomes a mega-hub).
  resp.peers = SampleOnlineMembers(options_.initial_peer_count, member_id);
  members_[member_id] = member;
  ++registrations_;
  Reply(msg.src, kLigloRegisterResp, resp.Encode());
}

void LigloServer::OnUpdate(const net::Message& msg) {
  auto req = UpdateRequest::Decode(msg.payload);
  if (!req.ok()) {
    BP_LOG(Warn) << "bad update request: " << req.status().ToString();
    return;
  }
  UpdateResponse resp;
  resp.request_id = req->request_id;
  auto it = members_.find(req->bpid.node_id);
  if (req->bpid.liglo_id != node_ || it == members_.end()) {
    resp.ok = false;
  } else {
    it->second.ip = req->ip;
    it->second.online = req->online;
    it->second.last_seen = transport_->clock().now();
    resp.ok = true;
  }
  Reply(msg.src, kLigloUpdateResp, resp.Encode());
}

void LigloServer::OnResolve(const net::Message& msg) {
  auto req = ResolveRequest::Decode(msg.payload);
  if (!req.ok()) {
    BP_LOG(Warn) << "bad resolve request: " << req.status().ToString();
    return;
  }
  ResolveResponse resp;
  resp.request_id = req->request_id;
  auto it = members_.find(req->bpid.node_id);
  if (req->bpid.liglo_id != node_ || it == members_.end()) {
    resp.state = PeerState::kUnknown;
  } else if (it->second.online) {
    resp.state = PeerState::kOnline;
    resp.ip = it->second.ip;
  } else {
    resp.state = PeerState::kOffline;
  }
  ++resolves_served_;
  Reply(msg.src, kLigloResolveResp, resp.Encode());
}

void LigloServer::OnPong(const net::Message& msg) {
  auto pong = PongMessage::Decode(msg.payload);
  if (!pong.ok()) return;
  auto it = members_.find(pong->bpid.node_id);
  if (it == members_.end()) return;
  if (it->second.pending_ping_nonce != pong->nonce) return;
  it->second.pending_ping_nonce = 0;
  it->second.online = true;
  it->second.ip = pong->ip;
  it->second.last_seen = transport_->clock().now();
}

void LigloServer::StartSweep() {
  if (options_.sweep_interval <= 0 || sweeping_) return;
  sweeping_ = true;
  transport_->clock().ScheduleAfter(options_.sweep_interval,
                                      [this]() { DoSweep(); });
}

void LigloServer::DoSweep() {
  if (!sweeping_) return;
  for (auto& [id, member] : members_) {
    if (!member.online) continue;
    auto target = ips_->Resolve(member.ip);
    if (!target.ok()) {
      // Address no longer valid on the LAN: the peer is gone.
      member.online = false;
      continue;
    }
    uint64_t nonce = next_nonce_++;
    member.pending_ping_nonce = nonce;
    PingMessage ping;
    ping.nonce = nonce;
    transport_->Send(target.value(), kLigloPing, ping.Encode());
    // If no pong clears the nonce in time, mark the member offline.
    uint32_t member_id = id;
    transport_->clock().ScheduleAfter(
        options_.ping_timeout, [this, member_id, nonce]() {
          auto it = members_.find(member_id);
          if (it == members_.end()) return;
          if (it->second.pending_ping_nonce == nonce) {
            it->second.online = false;
            it->second.pending_ping_nonce = 0;
          }
        });
  }
  transport_->clock().ScheduleAfter(options_.sweep_interval,
                                      [this]() { DoSweep(); });
}

size_t LigloServer::online_count() const {
  size_t n = 0;
  for (const auto& [id, m] : members_) {
    if (m.online) ++n;
  }
  return n;
}

Result<PeerState> LigloServer::MemberState(const Bpid& bpid) const {
  auto it = members_.find(bpid.node_id);
  if (bpid.liglo_id != node_ || it == members_.end()) {
    return Status::NotFound("not a member: " + bpid.ToString());
  }
  return it->second.online ? PeerState::kOnline : PeerState::kOffline;
}

Result<IpAddress> LigloServer::MemberIp(const Bpid& bpid) const {
  auto it = members_.find(bpid.node_id);
  if (bpid.liglo_id != node_ || it == members_.end()) {
    return Status::NotFound("not a member: " + bpid.ToString());
  }
  return it->second.ip;
}

}  // namespace bestpeer::liglo
