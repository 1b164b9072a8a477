#include "liglo/liglo_client.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace bestpeer::liglo {

namespace {

/// Delay before the first resend; doubles with every further attempt.
constexpr SimTime kRetryBackoff = Millis(200);

/// +/- fraction of deterministic jitter applied to each backoff delay,
/// de-synchronising clients that timed out together.
constexpr double kRetryJitter = 0.2;

/// Seed of the per-client jitter stream (mixed with the node id).
constexpr uint64_t kJitterSeed = 0x1B07;

}  // namespace

LigloClient::LigloClient(net::Transport* transport,
                         net::Dispatcher* dispatcher, IpDirectory* ips,
                         LigloClientOptions options)
    : transport_(transport),
      node_(transport->local()),
      ips_(ips),
      options_(options),
      jitter_rng_(kJitterSeed ^
                  (static_cast<uint64_t>(node_) << 32 | node_)) {
  if (options_.metrics != nullptr) {
    metrics::Registry* reg = options_.metrics;
    timeouts_.set_total(reg->GetCounter("liglo.timeouts"));
    retries_.set_total(reg->GetCounter("liglo.retries"));
    late_replies_.set_total(reg->GetCounter("liglo.late_replies"));
  }
  dispatcher->Register(kLigloRegisterResp, [this](const net::Message& m) {
    OnRegisterResp(m);
  });
  dispatcher->Register(kLigloUpdateResp, [this](const net::Message& m) {
    OnUpdateResp(m);
  });
  dispatcher->Register(kLigloResolveResp, [this](const net::Message& m) {
    OnResolveResp(m);
  });
  dispatcher->Register(kLigloPeersResp, [this](const net::Message& m) {
    OnPeersResp(m);
  });
  dispatcher->Register(kLigloPing,
                       [this](const net::Message& m) { OnPing(m); });
}

LigloClient::Pending LigloClient::TakePending(uint64_t id, bool* found) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    *found = false;
    return Pending{};
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  *found = true;
  return p;
}

void LigloClient::ArmTimeout(uint64_t id) {
  transport_->clock().ScheduleAfter(options_.request_timeout, [this, id]() {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // Already answered.
    timeouts_.Increment();
    Pending& p = it->second;
    if (p.attempt < options_.max_retries && Retryable(p.kind)) {
      // Recovery path: keep the request pending and resend after an
      // exponential backoff with deterministic jitter. A straggling reply
      // to an earlier attempt can still complete the request while we
      // back off — the resend then finds nothing pending and is dropped.
      ++p.attempt;
      retries_.Increment();
      transport_->RecordFlight({.type = obs::EventType::kLigloRetry,
                                .peer = p.server,
                                .a = id,
                                .b = static_cast<uint64_t>(p.attempt)});
      const SimTime backoff = kRetryBackoff * (SimTime{1} << (p.attempt - 1));
      const double spread =
          1.0 - kRetryJitter + 2.0 * kRetryJitter * jitter_rng_.NextDouble();
      const SimTime delay = std::max<SimTime>(
          1, static_cast<SimTime>(static_cast<double>(backoff) * spread));
      transport_->clock().ScheduleAfter(delay,
                                          [this, id]() { SendAttempt(id); });
      return;
    }
    Pending done = std::move(it->second);
    pending_.erase(it);
    Status timeout = Status::Unavailable("LIGLO request timed out");
    switch (done.kind) {
      case PendingKind::kRegister:
        if (done.on_register) done.on_register(timeout);
        break;
      case PendingKind::kUpdate:
        if (done.on_status) done.on_status(timeout);
        break;
      case PendingKind::kResolve:
        if (done.on_resolve) done.on_resolve(timeout);
        break;
      case PendingKind::kPeers:
        if (done.on_peers) done.on_peers(timeout);
        break;
    }
  });
}

void LigloClient::StartRequest(uint64_t id, Pending pending) {
  // No online short-circuit on purpose: a client cannot know the server
  // is down, so the timeout (and retry) path exercises realistically.
  pending_[id] = std::move(pending);
  SendAttempt(id);
}

void LigloClient::SendAttempt(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // Answered while backing off.
  transport_->Send(it->second.server, it->second.msg_type,
                   Bytes(it->second.payload));
  ArmTimeout(id);
}

void LigloClient::Register(NodeId liglo_server, IpAddress my_ip,
                           RegisterCallback callback) {
  uint64_t id = next_request_id_++;
  Pending p;
  p.kind = PendingKind::kRegister;
  p.on_register = std::move(callback);
  home_server_ = liglo_server;
  current_ip_ = my_ip;

  RegisterRequest req;
  req.request_id = id;
  req.ip = my_ip;
  p.server = liglo_server;
  p.msg_type = kLigloRegisterReq;
  p.payload = req.Encode();
  StartRequest(id, std::move(p));
}

void LigloClient::RegisterWithFallback(
    const std::vector<NodeId>& servers, IpAddress my_ip,
    RegisterCallback callback) {
  if (servers.empty()) {
    if (callback) {
      callback(Status::InvalidArgument("no LIGLO servers to try"));
    }
    return;
  }
  auto remaining =
      std::make_shared<std::vector<NodeId>>(servers.begin() + 1,
                                                 servers.end());
  Register(servers.front(), my_ip,
           [this, my_ip, remaining, callback](
               Result<RegisterOutcome> outcome) {
             if (outcome.ok() || remaining->empty()) {
               if (callback) callback(std::move(outcome));
               return;
             }
             RegisterWithFallback(*remaining, my_ip, callback);
           });
}

void LigloClient::UpdateAddress(IpAddress my_ip, bool online,
                                StatusCallback callback) {
  if (!registered()) {
    if (callback) {
      callback(Status::FailedPrecondition("not registered with a LIGLO"));
    }
    return;
  }
  uint64_t id = next_request_id_++;
  Pending p;
  p.kind = PendingKind::kUpdate;
  p.on_status = std::move(callback);
  current_ip_ = my_ip;

  UpdateRequest req;
  req.request_id = id;
  req.bpid = bpid_;
  req.ip = my_ip;
  req.online = online;
  p.server = home_server_;
  p.msg_type = kLigloUpdateReq;
  p.payload = req.Encode();
  StartRequest(id, std::move(p));
}

void LigloClient::Resolve(const Bpid& peer, ResolveCallback callback) {
  uint64_t id = next_request_id_++;
  Pending p;
  p.kind = PendingKind::kResolve;
  p.on_resolve = std::move(callback);

  ResolveRequest req;
  req.request_id = id;
  req.bpid = peer;
  // The peer's home LIGLO has a fixed address: its liglo_id is the node.
  p.server = static_cast<NodeId>(peer.liglo_id);
  p.msg_type = kLigloResolveReq;
  p.payload = req.Encode();
  StartRequest(id, std::move(p));
}

void LigloClient::Rejoin(IpAddress my_ip, const std::vector<Bpid>& peers,
                         RejoinCallback callback) {
  // Step 1: push our (possibly new) IP to our home LIGLO.
  UpdateAddress(my_ip, /*online=*/true, [this, peers,
                                         callback](Status status) {
    if (!status.ok()) {
      if (callback) callback(status);
      return;
    }
    // Step 2: resolve each peer through its registered LIGLO.
    auto outcome = std::make_shared<RejoinOutcome>();
    outcome->peers.resize(peers.size());
    auto remaining = std::make_shared<size_t>(peers.size());
    if (peers.empty()) {
      if (callback) callback(*outcome);
      return;
    }
    for (size_t i = 0; i < peers.size(); ++i) {
      Resolve(peers[i], [i, outcome, remaining,
                         callback](Result<ResolveOutcome> result) {
        if (result.ok()) {
          outcome->peers[i] = result.value();
        } else {
          outcome->peers[i] =
              ResolveOutcome{PeerState::kUnknown, kInvalidIp};
        }
        if (--*remaining == 0 && callback) callback(*outcome);
      });
    }
  });
}

void LigloClient::DiscoverPeers(PeersCallback callback) {
  if (!registered()) {
    if (callback) {
      callback(Status::FailedPrecondition("not registered with a LIGLO"));
    }
    return;
  }
  uint64_t id = next_request_id_++;
  Pending p;
  p.kind = PendingKind::kPeers;
  p.on_peers = std::move(callback);

  PeersRequest req;
  req.request_id = id;
  req.requester = bpid_;
  p.server = home_server_;
  p.msg_type = kLigloPeersReq;
  p.payload = req.Encode();
  StartRequest(id, std::move(p));
}

void LigloClient::OnPeersResp(const net::Message& msg) {
  auto resp = PeersResponse::Decode(msg.payload);
  if (!resp.ok()) return;
  bool found = false;
  Pending p = TakePending(resp->request_id, &found);
  if (!found) {
    NoteLateReply();
    return;
  }
  if (p.kind != PendingKind::kPeers) return;
  if (p.on_peers) p.on_peers(std::move(resp->peers));
}

void LigloClient::OnRegisterResp(const net::Message& msg) {
  auto resp = RegisterResponse::Decode(msg.payload);
  if (!resp.ok()) return;
  bool found = false;
  Pending p = TakePending(resp->request_id, &found);
  if (!found) {
    NoteLateReply();
    return;
  }
  if (p.kind != PendingKind::kRegister) return;
  if (!resp->accepted) {
    if (p.on_register) {
      p.on_register(
          Status::ResourceExhausted("LIGLO server at capacity"));
    }
    return;
  }
  bpid_ = resp->bpid;
  if (p.on_register) {
    p.on_register(RegisterOutcome{resp->bpid, resp->peers});
  }
}

void LigloClient::OnUpdateResp(const net::Message& msg) {
  auto resp = UpdateResponse::Decode(msg.payload);
  if (!resp.ok()) return;
  bool found = false;
  Pending p = TakePending(resp->request_id, &found);
  if (!found) {
    NoteLateReply();
    return;
  }
  if (p.kind != PendingKind::kUpdate) return;
  if (p.on_status) {
    p.on_status(resp->ok ? Status::OK()
                         : Status::NotFound("LIGLO does not know us"));
  }
}

void LigloClient::OnResolveResp(const net::Message& msg) {
  auto resp = ResolveResponse::Decode(msg.payload);
  if (!resp.ok()) return;
  bool found = false;
  Pending p = TakePending(resp->request_id, &found);
  if (!found) {
    NoteLateReply();
    return;
  }
  if (p.kind != PendingKind::kResolve) return;
  if (p.on_resolve) {
    p.on_resolve(ResolveOutcome{resp->state, resp->ip});
  }
}

void LigloClient::OnPing(const net::Message& msg) {
  auto ping = PingMessage::Decode(msg.payload);
  if (!ping.ok()) return;
  PongMessage pong;
  pong.nonce = ping->nonce;
  pong.bpid = bpid_;
  pong.ip = current_ip_;
  transport_->Send(msg.src, kLigloPong, pong.Encode());
}

}  // namespace bestpeer::liglo
