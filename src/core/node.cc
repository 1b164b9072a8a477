#include "core/node.h"

#include <algorithm>
#include <utility>

#include "core/search_agent.h"
#include "net/cost_model.h"
#include "storm/query_expr.h"
#include "util/logging.h"

namespace bestpeer::core {

namespace {

/// Replica targets per promotion under QoS placement.
constexpr size_t kQosReplicaFanout = 2;

}  // namespace

Status RegisterBuiltinAgents(agent::AgentRegistry* registry) {
  if (!registry->Contains(kSearchAgentClass)) {
    BP_RETURN_IF_ERROR(registry->Register(
        kSearchAgentClass, net::kAgentCodeBytes,
        []() { return std::make_unique<SearchAgent>(); }));
  }
  if (!registry->Contains(kComputeAgentClass)) {
    BP_RETURN_IF_ERROR(registry->Register(
        kComputeAgentClass, net::kAgentCodeBytes,
        []() { return std::make_unique<ComputeAgent>(); }));
  }
  return Status::OK();
}

BestPeerNode::BestPeerNode(net::Transport* transport, SharedInfra* infra,
                           BestPeerConfig config)
    : transport_(transport),
      node_(transport->local()),
      infra_(infra),
      config_(std::move(config)),
      peers_(config_.max_direct_peers),
      next_file_object_id_((static_cast<uint64_t>(node_) << 32) |
                           0x80000000ULL) {}

Result<std::unique_ptr<BestPeerNode>> BestPeerNode::Create(
    net::Transport* transport, SharedInfra* infra, BestPeerConfig config) {
  auto owned = std::unique_ptr<BestPeerNode>(
      new BestPeerNode(transport, infra, std::move(config)));
  BP_RETURN_IF_ERROR(owned->Init());
  return owned;
}

Status BestPeerNode::Init() {
  BP_ASSIGN_OR_RETURN(codec_, MakeCodec(config_.codec));
  BP_ASSIGN_OR_RETURN(strategy_, MakeReconfigStrategy(config_.strategy));
  BP_RETURN_IF_ERROR(RegisterBuiltinAgents(&infra_->agent_registry));

  if (config_.metrics != nullptr) {
    metrics::Registry* reg = config_.metrics;
    queries_issued_c_ = reg->GetCounter("core.queries_issued");
    results_received_.set_total(reg->GetCounter("core.results_received"));
    answers_received_c_ = reg->GetCounter("core.answers_received");
    reconfigurations_.set_total(reg->GetCounter("core.reconfigurations"));
    fetches_issued_c_ = reg->GetCounter("core.fetches_issued");
    late_results_.set_total(reg->GetCounter("core.late_results"));
    sessions_finalized_.set_total(reg->GetCounter("core.sessions_finalized"));
    peer_evictions_.set_total(reg->GetCounter("core.peer_evictions"));
    inflight_sessions_g_ = reg->GetGauge("core.inflight_sessions");
    result_hops_ = reg->GetHistogram("core.result_hops");
    if (config_.enable_result_cache) {
      cache_remote_hits_.set_total(reg->GetCounter("core.cache_remote_hits"));
      cache_notmod_orphans_.set_total(
          reg->GetCounter("core.cache_notmod_orphans"));
      cache_stale_probes_.set_total(
          reg->GetCounter("core.cache_stale_probes"));
      index_epoch_g_ = reg->GetGauge("core.index_epoch");
    }
    if (config_.enable_replication) {
      replica_pushes_.set_total(reg->GetCounter("core.replica_pushes"));
      replicas_expired_.set_total(reg->GetCounter("core.replicas_expired"));
    }
    if (config_.enable_content_summaries) {
      summary_skips_.set_total(reg->GetCounter("core.summary_skips"));
    }
    if (config_.enable_gossip && config_.enable_result_cache) {
      gossip_invalidations_.set_total(
          reg->GetCounter("core.gossip_invalidations"));
    }
  }
  if (config_.enable_result_cache) {
    cache::ResultCacheOptions rc;
    rc.metrics = config_.metrics;
    rc.flight = transport_->flight();
    rc.node = node_;
    rc.now = [this]() { return transport_->clock().now(); };
    result_cache_ = std::make_unique<cache::ResultCache>(std::move(rc));
    if (config_.enable_replication) {
      cache::ReplicaManagerOptions rm;
      rm.hot_threshold = config_.replica_hot_threshold;
      rm.top_k = config_.replica_top_k;
      rm.cooldown = config_.replica_cooldown;
      rm.metrics = config_.metrics;
      replica_mgr_ = std::make_unique<cache::ReplicaManager>(rm);
    }
  }
  transport_->RegisterTypeName(kSearchResultType, "search.result");
  transport_->RegisterTypeName(kFetchReqType, "fetch.request");
  transport_->RegisterTypeName(kFetchRespType, "fetch.response");
  transport_->RegisterTypeName(kActiveObjReqType, "activeobj.request");
  transport_->RegisterTypeName(kActiveObjRespType, "activeobj.response");
  transport_->RegisterTypeName(kPeerConnectType, "peer.connect");
  transport_->RegisterTypeName(kPeerDisconnectType, "peer.disconnect");
  transport_->RegisterTypeName(kDataShipReqType, "dataship.request");
  transport_->RegisterTypeName(kDataShipRespType, "dataship.response");
  transport_->RegisterTypeName(kWatchReqType, "watch.request");
  transport_->RegisterTypeName(kUpdateNotifyType, "update.notify");
  transport_->RegisterTypeName(kCacheReplicaPushType, "cache.replica_push");
  transport_->RegisterTypeName(kPeerSummaryType, "peer.summary");

  dispatcher_ = std::make_unique<net::Dispatcher>(transport_);
  liglo::LigloClientOptions liglo_options;
  liglo_options.max_retries = config_.liglo_max_retries;
  liglo_options.metrics = config_.metrics;
  liglo_ = std::make_unique<liglo::LigloClient>(
      transport_, dispatcher_.get(), &infra_->ip_directory, liglo_options);

  agent::AgentRuntimeOptions agent_options;
  agent_options.seen_expiry = config_.agent_seen_expiry;
  agent_options.codec = codec_;
  agent_options.metrics = config_.metrics;
  runtime_ = std::make_unique<agent::AgentRuntime>(
      transport_, &infra_->agent_registry, &infra_->code_cache, this,
      [this]() { return peers_.Nodes(); }, agent_options);

  dispatcher_->Register(agent::kAgentTransferType,
                        [this](const net::Message& m) {
                          Status s = runtime_->OnMessage(m);
                          if (!s.ok()) {
                            BP_LOG(Warn) << "agent transfer failed at node "
                                         << node_ << ": " << s.ToString();
                          }
                        });
  dispatcher_->Register(kSearchResultType, [this](const net::Message& m) {
    OnSearchResult(m);
  });
  dispatcher_->Register(kFetchReqType, [this](const net::Message& m) {
    OnFetchRequest(m);
  });
  dispatcher_->Register(kFetchRespType, [this](const net::Message& m) {
    OnFetchResponse(m);
  });
  dispatcher_->Register(kActiveObjReqType, [this](const net::Message& m) {
    OnActiveObjectRequest(m);
  });
  dispatcher_->Register(kActiveObjRespType, [this](const net::Message& m) {
    OnActiveObjectResponse(m);
  });
  dispatcher_->Register(kDataShipReqType, [this](const net::Message& m) {
    OnDataShipRequest(m);
  });
  dispatcher_->Register(kCacheReplicaPushType,
                        [this](const net::Message& m) {
                          OnCacheReplicaPush(m);
                        });
  dispatcher_->Register(kWatchReqType, [this](const net::Message& m) {
    OnWatchRequest(m);
  });
  dispatcher_->Register(kUpdateNotifyType,
                        [this](const net::Message& m) {
                          OnUpdateNotify(m);
                        });
  dispatcher_->Register(kDataShipRespType,
                        [this](const net::Message& m) {
                          OnDataShipResponse(m);
                        });
  dispatcher_->Register(kPeerConnectType, [this](const net::Message& m) {
    OnPeerConnect(m);
  });
  dispatcher_->Register(kPeerDisconnectType,
                        [this](const net::Message& m) {
                          OnPeerDisconnect(m);
                        });
  dispatcher_->Register(kPeerSummaryType, [this](const net::Message& m) {
    OnPeerSummary(m);
  });

  if (config_.enable_gossip) {
    transport_->RegisterTypeName(gossip::kGossipMsgType, "gossip.frame");
    gossip::GossipOptions go;
    go.fanout = config_.gossip_fanout;
    go.round_interval = config_.gossip_interval;
    go.hot_rounds = config_.gossip_hot_rounds;
    go.seed = config_.gossip_seed;
    go.metrics = config_.metrics;
    gossip_ = std::make_unique<gossip::GossipAgent>(transport_, go);
    gossip_->SetPeerProvider([this]() { return peers_.Nodes(); });
    gossip_->SetApplyHook(
        [this](const gossip::GossipItem& item) { OnGossipApply(item); });
    dispatcher_->Register(gossip::kGossipMsgType,
                          [this](const net::Message& m) {
                            gossip_->OnMessage(m);
                          });
  }
  return Status::OK();
}

// ---------------------------------------------------------------- storage

Status BestPeerNode::InitStorage(const storm::StormOptions& options) {
  storm::StormOptions opts = options;
  if (opts.metrics == nullptr && config_.metrics != nullptr) {
    opts.metrics = config_.metrics;
    opts.metrics_label = std::to_string(node_);
  }
  // Both the index search path and the summary digest need the inverted
  // index regardless of what the caller's store options say.
  if (config_.use_index_search || config_.enable_content_summaries) {
    opts.build_index = true;
  }
  BP_ASSIGN_OR_RETURN(storage_, storm::Storm::Open(opts));
  if (result_cache_ != nullptr || config_.enable_content_summaries ||
      gossip_ != nullptr) {
    // StorM epoch hook: every insert/delete bumps the mutation epoch, which
    // is what lazily invalidates cached slices (they carry the epoch they
    // were computed at). The gauge makes the bump observable. The summary
    // plane rides the same hook to refresh what peers know about us, and
    // the gossip plane floods the bump so remote caches invalidate ahead
    // of their next probe.
    storage_->SetMutationListener([this](uint64_t epoch) {
      index_epoch_g_->Set(epoch + 1);
      if (config_.enable_content_summaries) ScheduleSummaryRefresh();
      if (gossip_ != nullptr) gossip_->AnnounceEpoch(epoch + 1);
    });
  }
  return Status::OK();
}

Status BestPeerNode::ShareObject(storm::ObjectId id, const Bytes& content) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  BP_RETURN_IF_ERROR(storage_->Put(id, content));
  NotifyWatchers(UpdateNotifyMessage::Kind::kAdded, id);
  return Status::OK();
}

Status BestPeerNode::UnshareObject(storm::ObjectId id) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  BP_RETURN_IF_ERROR(storage_->Delete(id));
  NotifyWatchers(UpdateNotifyMessage::Kind::kRemoved, id);
  return Status::OK();
}

Status BestPeerNode::UpdateObject(storm::ObjectId id, const Bytes& content) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  BP_RETURN_IF_ERROR(storage_->Update(id, content));
  NotifyWatchers(UpdateNotifyMessage::Kind::kUpdated, id);
  return Status::OK();
}

void BestPeerNode::NotifyWatchers(UpdateNotifyMessage::Kind kind,
                                  storm::ObjectId id) {
  if (watchers_.empty()) return;
  UpdateNotifyMessage notify;
  notify.kind = kind;
  notify.object_id = id;
  Bytes encoded = notify.Encode();
  for (NodeId watcher : watchers_) {
    SendCompressed(watcher, kUpdateNotifyType, encoded);
  }
}

void BestPeerNode::WatchPeer(NodeId provider, UpdateCallback callback) {
  watching_[provider] = std::move(callback);
  WatchRequest req;
  req.subscribe = true;
  SendCompressed(provider, kWatchReqType, req.Encode());
}

void BestPeerNode::UnwatchPeer(NodeId provider) {
  watching_.erase(provider);
  WatchRequest req;
  req.subscribe = false;
  SendCompressed(provider, kWatchReqType, req.Encode());
}

void BestPeerNode::OnWatchRequest(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto req = WatchRequest::Decode(payload.value());
  if (!req.ok()) return;
  if (req->subscribe) {
    watchers_.insert(msg.src);
  } else {
    watchers_.erase(msg.src);
  }
}

void BestPeerNode::OnUpdateNotify(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto notify = UpdateNotifyMessage::Decode(payload.value());
  if (!notify.ok()) return;
  auto it = watching_.find(msg.src);
  if (it == watching_.end() || !it->second) return;
  it->second(msg.src, notify->kind, notify->object_id);
}

Status BestPeerNode::ShareFile(const std::string& name,
                               const Bytes& content) {
  if (shared_files_.count(name) != 0) {
    return Status::AlreadyExists("file " + name);
  }
  storm::ObjectId id = next_file_object_id_++;
  BP_RETURN_IF_ERROR(ShareObject(id, content));
  shared_files_[name] = id;
  return Status::OK();
}

Result<storm::ObjectId> BestPeerNode::LookupFile(
    const std::string& name) const {
  auto it = shared_files_.find(name);
  if (it == shared_files_.end()) {
    return Status::NotFound("file " + name);
  }
  return it->second;
}

// ---------------------------------------------------------------- LIGLO

void BestPeerNode::JoinNetwork(NodeId liglo_server, liglo::IpAddress ip,
                               JoinCallback callback) {
  infra_->ip_directory.Assign(ip, node_).ok();
  liglo_->Register(
      liglo_server, ip,
      [this, callback = std::move(callback)](
          Result<liglo::LigloClient::RegisterOutcome> outcome) {
        // Adopt the starter peers (paper §2: the registration response
        // carries (BPID, IP) pairs of nodes we may talk to directly). The
        // sample excludes the new member, but after a lost reply the
        // retried registration lists this node's first membership too;
        // the join path does not filter it (a known self-link, tracked
        // in ROADMAP.md).
        if (outcome.ok()) {
          AdoptLigloPeers(outcome->peers, /*skip_self=*/false);
        }
        if (callback) callback(std::move(outcome));
      });
}

void BestPeerNode::RejoinNetwork(liglo::IpAddress ip,
                                 RejoinCallback callback) {
  infra_->ip_directory.Assign(ip, node_).ok();
  // Collect the BPIDs of peers we know globally.
  std::vector<liglo::Bpid> bpids;
  std::vector<NodeId> owners;
  for (const auto& info : peers_.Snapshot()) {
    if (info.bpid.IsValid()) {
      bpids.push_back(info.bpid);
      owners.push_back(info.node);
    }
  }
  liglo_->Rejoin(
      ip, bpids,
      [this, owners, callback = std::move(callback)](
          Result<liglo::LigloClient::RejoinOutcome> outcome) {
        if (outcome.ok()) {
          for (size_t i = 0; i < outcome->peers.size(); ++i) {
            const auto& res = outcome->peers[i];
            PeerInfo* info = peers_.Find(owners[i]);
            if (info == nullptr) continue;
            if (res.state == liglo::PeerState::kOnline) {
              info->ip = res.ip;
              auto where = infra_->ip_directory.Resolve(res.ip);
              if (where.ok()) info->node = where.value();
            } else {
              // Offline or unknown: drop; new peers will be adopted as
              // they are encountered (paper §2).
              peers_.Remove(owners[i]);
            }
          }
          // Replace dropped peers with fresh ones from the LIGLO.
          ReplenishPeersIfIsolated();
        }
        if (callback) callback(std::move(outcome));
      });
}

// ---------------------------------------------------------------- peers

void BestPeerNode::AddDirectPeerLocal(NodeId peer) {
  PeerInfo info;
  info.node = peer;
  peers_.Add(info, /*enforce_capacity=*/false);
  NoteGossipPeersChanged();
}

void BestPeerNode::RemoveDirectPeerLocal(NodeId peer) {
  peers_.Remove(peer);
}

void BestPeerNode::OnPeerConnect(const net::Message& msg) {
  if (!peers_.Contains(msg.src) && peers_.size() >= config_.AcceptCap()) {
    // At the inbound cap: refuse so the other side drops the link too.
    SendCompressed(msg.src, kPeerDisconnectType, Bytes{});
    return;
  }
  PeerInfo info;
  info.node = msg.src;
  if (peers_.Add(info, /*enforce_capacity=*/false)) {
    // Answer with our summary so both link ends can prune (the opener
    // already sent theirs alongside the connect notice).
    SendSummaryTo(msg.src);
    NoteGossipPeersChanged();
  }
}

void BestPeerNode::OnPeerDisconnect(const net::Message& msg) {
  peers_.Remove(msg.src);
  peer_summaries_.erase(msg.src);
  RevokeLeasesFrom(msg.src);
  ReplenishPeersIfIsolated();
}

// ---------------------------------------------------------------- gossip

void BestPeerNode::NoteGossipPeersChanged() {
  if (gossip_ != nullptr) gossip_->NotifyPeersChanged();
}

void BestPeerNode::OnGossipApply(const gossip::GossipItem& item) {
  switch (item.kind) {
    case gossip::ItemKind::kIndexEpoch: {
      if (item.origin == node_) break;
      // The epoch bump arrived ahead of the next query: drop every slice
      // this producer contributed before any probe can discover the
      // staleness the expensive way (a full round trip).
      if (result_cache_ != nullptr) {
        gossip_invalidations_.Add(
            result_cache_->InvalidateSource(item.origin, item.payload));
      }
      break;
    }
    case gossip::ItemKind::kLeaseGrant:
      // Grants are informational for third parties; the pusher's own
      // lease book was updated synchronously at push time.
      break;
    case gossip::ItemKind::kLeaseExpire: {
      // The holder's lease ended: stop treating it as freshly covered
      // when scoring placement for the next promotion.
      auto holder_it = lease_book_.find(item.origin);
      if (holder_it != lease_book_.end()) {
        holder_it->second.erase(item.subject);
        if (holder_it->second.empty()) lease_book_.erase(holder_it);
      }
      break;
    }
  }
}

void BestPeerNode::RevokeLeasesFrom(NodeId peer) {
  // Pusher role: forget every lease granted to the lost peer so the next
  // promotion re-places those objects.
  lease_book_.erase(peer);
  // Receiver role: delete the copies the lost peer pushed here — a
  // replica whose source is gone can never be refreshed, only go stale.
  if (replica_mgr_ == nullptr) return;
  std::vector<uint64_t> revoked = replica_mgr_->RevokeFrom(peer);
  for (uint64_t id : revoked) {
    if (storage_ != nullptr) storage_->Delete(id).ok();
    transport_->RecordFlight(
        {.type = obs::EventType::kLeaseRevoke, .peer = peer, .a = id});
    if (gossip_ != nullptr) gossip_->AnnounceLeaseExpire(id, 0);
  }
}

void BestPeerNode::ReplenishPeersIfIsolated(bool below_capacity) {
  // A node whose last peer vanished (or refused the link) replaces it
  // with new peers from its LIGLO (§2: "it can simply replace those
  // peers by new peers that it encounters").
  const bool want_more = below_capacity
                             ? peers_.size() < config_.max_direct_peers
                             : peers_.Nodes().empty();
  if (!want_more || !liglo_->registered() || replenish_in_flight_) {
    return;
  }
  replenish_in_flight_ = true;
  liglo_->DiscoverPeers(
      [this](Result<std::vector<liglo::PeerEntry>> peers) {
        replenish_in_flight_ = false;
        if (peers.ok()) AdoptLigloPeers(peers.value(), /*skip_self=*/true);
      });
}

void BestPeerNode::AdoptLigloPeers(
    const std::vector<liglo::PeerEntry>& entries, bool skip_self) {
  for (const auto& entry : entries) {
    if (peers_.size() >= config_.max_direct_peers) break;
    auto peer_node = infra_->ip_directory.Resolve(entry.ip);
    if (!peer_node.ok()) continue;  // Stale address; skip.
    if (skip_self && peer_node.value() == node_) continue;
    PeerInfo info;
    info.node = peer_node.value();
    info.bpid = entry.bpid;
    info.ip = entry.ip;
    if (peers_.Add(info)) {
      SendCompressed(info.node, kPeerConnectType, Bytes{});
      SendSummaryTo(info.node);
    }
  }
  NoteGossipPeersChanged();
}

void BestPeerNode::OnPeerSummary(const net::Message& msg) {
  if (!config_.enable_content_summaries) return;
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto decoded = PeerSummaryMessage::Decode(payload.value());
  if (!decoded.ok()) return;
  auto it = peer_summaries_.find(msg.src);
  if (it != peer_summaries_.end() &&
      it->second.epoch() > decoded->summary.epoch()) {
    return;  // Reordered delivery: keep the newer digest.
  }
  peer_summaries_[msg.src] = std::move(decoded->summary);
}

const storm::ContentSummary& BestPeerNode::OwnSummary() {
  const uint64_t index_epoch =
      storage_ != nullptr ? storage_->mutation_epoch() + 1 : 0;
  if (!own_summary_valid_ || own_summary_.epoch() != index_epoch) {
    own_summary_ = storage_ != nullptr
                       ? storm::ContentSummary::Build(storage_->index(),
                                                      index_epoch)
                       : storm::ContentSummary();
    own_summary_valid_ = true;
  }
  return own_summary_;
}

void BestPeerNode::ScheduleSummaryRefresh() {
  if (!config_.enable_content_summaries || summary_push_pending_) return;
  // Debounce: a burst of mutations (store population, replica pushes)
  // yields one broadcast carrying the final epoch, not one per Put.
  summary_push_pending_ = true;
  transport_->clock().ScheduleAfter(0, [this]() {
    summary_push_pending_ = false;
    BroadcastSummary();
  });
}

void BestPeerNode::BroadcastSummary() {
  if (!config_.enable_content_summaries || storage_ == nullptr) return;
  const storm::ContentSummary& summary = OwnSummary();
  if (summary.epoch() == last_broadcast_epoch_) return;
  last_broadcast_epoch_ = summary.epoch();
  PeerSummaryMessage msg;
  msg.summary = summary;
  const Bytes payload = msg.Encode();
  for (NodeId peer : peers_.Nodes()) {
    SendCompressed(peer, kPeerSummaryType, payload);
  }
}

void BestPeerNode::SendSummaryTo(NodeId peer) {
  if (!config_.enable_content_summaries || storage_ == nullptr) return;
  PeerSummaryMessage msg;
  msg.summary = OwnSummary();
  SendCompressed(peer, kPeerSummaryType, msg.Encode());
}

std::vector<NodeId> BestPeerNode::SummarySkipSet(const std::string& keyword) {
  std::vector<NodeId> skip;
  if (!config_.enable_content_summaries || peer_summaries_.empty()) {
    return skip;
  }
  auto expr = storm::QueryExpr::Parse(keyword);
  if (!expr.ok()) return skip;
  for (const auto& [peer, summary] : peer_summaries_) {
    // Bloom filters have no false negatives: !MayMatch proves the peer
    // holds no object satisfying any DNF branch, so the skip is
    // recall-safe at hop 1. (The peer is not probed for its own
    // neighbours either — the pruning trade-off benched in
    // bench_index_search.)
    if (!summary.MayMatch(expr.value())) skip.push_back(peer);
  }
  return skip;
}

// ---------------------------------------------------------------- querying

uint64_t BestPeerNode::NextQueryId() {
  return (static_cast<uint64_t>(node_) << 32) | ++query_counter_;
}

Result<uint64_t> BestPeerNode::LaunchAgent(agent::Agent& agent,
                                           uint64_t query_id,
                                           const std::string& keyword,
                                           uint16_t ttl,
                                           const std::vector<NodeId>& skip) {
  if (ttl == 0) ttl = config_.default_ttl;
  queries_issued_c_->Increment();
  sessions_.emplace(
      query_id, QuerySession(query_id, keyword, config_.answer_mode,
                             transport_->clock().now()));
  inflight_sessions_g_->Add(1);
  std::vector<NodeId> targets = peers_.Nodes();
  std::erase_if(targets, [&skip](NodeId peer) {
    return std::find(skip.begin(), skip.end(), peer) != skip.end();
  });
  BP_RETURN_IF_ERROR(runtime_->Launch(query_id, agent, ttl, targets));
  ArmSessionDeadline(query_id);
  return query_id;
}

void BestPeerNode::ArmSessionDeadline(uint64_t query_id) {
  if (config_.query_deadline <= 0) return;
  transport_->clock().ScheduleAfter(
      config_.query_deadline,
      [this, query_id]() { FinalizeSession(query_id); });
}

void BestPeerNode::FinalizeSession(uint64_t query_id) {
  auto it = sessions_.find(query_id);
  if (it == sessions_.end() || it->second.finalized()) return;
  it->second.Finalize();
  sessions_finalized_.Increment();
  inflight_sessions_g_->Add(-1);
  transport_->RecordFlight({.type = obs::EventType::kSessionFinalize,
                            .flow = query_id,
                            .a = it->second.total_answers(),
                            .b = it->second.responder_count()});
  if (it->second.responder_count() == 0) {
    // The deadline fired with nothing heard back — the signature of a
    // dead base-node neighborhood or a lost agent.
    transport_->RecordFlight(
        {.type = obs::EventType::kDeadlineExpire, .flow = query_id});
    if (obs::FlightRecorder* flight = transport_->flight()) {
      flight->TripAnomaly(transport_->clock().now(),
                          "deadline without responses query=" +
                              std::to_string(query_id));
    }
  }
  UpdatePeerHealth(it->second);
  probe_snapshots_.erase(query_id);  // Frozen sessions can't use slices.
}

void BestPeerNode::UpdatePeerHealth(const QuerySession& session) {
  std::set<NodeId> responders;
  for (const auto& e : session.responses()) responders.insert(e.node);

  std::vector<NodeId> evicted;
  for (NodeId peer : peers_.Nodes()) {
    PeerInfo* info = peers_.Find(peer);
    if (info == nullptr) continue;
    if (responders.count(peer) != 0) {
      info->consecutive_failures = 0;
      continue;
    }
    if (++info->consecutive_failures >= config_.peer_failure_threshold) {
      evicted.push_back(peer);
    }
  }
  for (NodeId peer : evicted) {
    // The peer missed too many deadlines in a row: treat it as dead and
    // replace it (paper §2: departed peers are "simply replace[d] ...
    // by new peers"). The disconnect notice is best-effort — a crashed
    // peer never sees it.
    peers_.Remove(peer);
    peer_summaries_.erase(peer);
    RevokeLeasesFrom(peer);
    SendCompressed(peer, kPeerDisconnectType, Bytes{});
    peer_evictions_.Increment();
  }
  if (!evicted.empty()) ReplenishPeersIfIsolated(/*below_capacity=*/true);
}

Result<uint64_t> BestPeerNode::IssueSearch(const std::string& keyword,
                                           uint16_t ttl) {
  uint64_t query_id = NextQueryId();
  SearchAgent agent(query_id, keyword, config_.answer_mode);
  if (result_cache_ != nullptr) {
    // Arm the cache-probe hop step: the agent carries the epoch this base
    // last saw per responder, and the base keeps the matching slices
    // snapshotted so a "not modified" reply can be materialized locally.
    auto norm = storm::QueryExpr::NormalizeQuery(keyword);
    const std::string key = norm.ok() ? std::move(norm).value() : keyword;
    result_cache_->RecordAccess(key);
    std::map<uint32_t, uint64_t> known;
    std::map<NodeId, cache::CachedSlice> snapshot;
    if (const auto* slices = result_cache_->SlicesFor(key)) {
      for (const auto& [source, slice] : *slices) {
        known.emplace(static_cast<uint32_t>(source), slice.epoch);
        snapshot.emplace(static_cast<NodeId>(source), slice);
      }
    }
    agent.EnableCacheProbe(std::move(known));
    probe_snapshots_[query_id] = std::move(snapshot);
  }
  if (config_.use_index_search) {
    agent.EnableIndexSearch();
  }
  std::vector<NodeId> skip = SummarySkipSet(keyword);
  summary_skips_.Add(skip.size());
  return LaunchAgent(agent, query_id, keyword, ttl, skip);
}

Result<uint64_t> BestPeerNode::IssueCompute(const std::string& filter_name,
                                            const Bytes& params,
                                            uint16_t ttl) {
  uint64_t query_id = NextQueryId();
  ComputeAgent agent(query_id, filter_name, params);
  return LaunchAgent(agent, query_id, filter_name, ttl, /*skip=*/{});
}

size_t BestPeerNode::StoreSizeHint(NodeId node) const {
  auto it = store_size_hints_.find(node);
  return it == store_size_hints_.end() ? 0 : it->second;
}

Result<uint64_t> BestPeerNode::IssueDirectSearch(const std::string& keyword,
                                                 ShippingMode mode) {
  uint64_t query_id = NextQueryId();
  queries_issued_c_->Increment();
  sessions_.emplace(
      query_id, QuerySession(query_id, keyword, AnswerMode::kIndicate,
                             transport_->clock().now()));
  inflight_sessions_g_->Add(1);
  ArmSessionDeadline(query_id);

  std::vector<NodeId> code_targets;
  std::vector<NodeId> data_targets;
  for (NodeId peer : peers_.Nodes()) {
    ShippingStrategy strategy = ShippingStrategy::kCodeShipping;
    switch (mode) {
      case ShippingMode::kAlwaysCode:
        break;
      case ShippingMode::kAlwaysData:
        strategy = ShippingStrategy::kDataShipping;
        break;
      case ShippingMode::kAdaptive: {
        ShippingCostInputs inputs;
        inputs.remote_objects = StoreSizeHint(peer);
        inputs.class_cached =
            infra_->code_cache.Has(peer, kSearchAgentClass);
        strategy = ChooseShippingStrategy(inputs, transport_->link());
        break;
      }
    }
    if (strategy == ShippingStrategy::kDataShipping) {
      data_targets.push_back(peer);
    } else {
      code_targets.push_back(peer);
    }
  }

  if (!code_targets.empty()) {
    SearchAgent agent(query_id, keyword, AnswerMode::kIndicate);
    BP_RETURN_IF_ERROR(
        runtime_->Launch(query_id, agent, /*ttl=*/1, code_targets));
  }
  for (NodeId peer : data_targets) {
    DataShipRequest req;
    req.query_id = query_id;
    SendCompressed(peer, kDataShipReqType, req.Encode(), query_id);
  }
  return query_id;
}

void BestPeerNode::OnDataShipRequest(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto req = DataShipRequest::Decode(payload.value());
  if (!req.ok()) return;
  if (storage_ == nullptr) return;

  auto response = std::make_shared<DataShipResponse>();
  response->query_id = req->query_id;
  SimTime cost = 0;
  for (storm::ObjectId id : storage_->ListIds()) {
    auto item = ReadShared(id);
    if (!item.ok()) continue;
    response->items.push_back(std::move(item).value());
    cost += net::kFetchPerObjectCost;
  }
  NodeId requester = msg.src;
  transport_->RunCpu(
      cost,
      [this, requester, response]() {
        SendCompressed(requester, kDataShipRespType, response->Encode(),
                       response->query_id);
      },
      "dataship.serve", response->query_id);
}

void BestPeerNode::OnDataShipResponse(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto resp = DataShipResponse::Decode(payload.value());
  if (!resp.ok()) return;
  auto it = sessions_.find(resp->query_id);
  if (it == sessions_.end()) return;
  if (it->second.finalized()) {
    late_results_.Increment();
    return;
  }
  store_size_hints_[msg.src] = resp->items.size();

  // Scan the shipped store locally — this node paid for the data, now it
  // spends its own cycles on the filtering, with the same query language
  // the search agent evaluates (an unparsable query matches nothing).
  size_t matches = 0;
  auto expr = storm::QueryExpr::Parse(it->second.keyword());
  for (const auto& item : resp->items) {
    if (expr.ok() && expr->Matches(ToString(item.content))) ++matches;
  }
  SimTime cost = static_cast<SimTime>(resp->items.size()) *
                 net::kPerObjectMatchCost;
  NodeId responder = msg.src;
  uint64_t query_id = resp->query_id;
  transport_->RunCpu(
      cost,
      [this, query_id, responder, matches]() {
        auto session_it = sessions_.find(query_id);
        if (session_it == sessions_.end()) return;
        if (session_it->second.finalized()) {
          late_results_.Increment();
          return;
        }
        ResponseEvent event;
        event.time = transport_->clock().now();
        event.node = responder;
        event.hops = 1;
        event.answers = matches;
        session_it->second.RecordResult(event);
      },
      "dataship.scan", query_id);
}

Status BestPeerNode::ReplicateObjects(
    const std::vector<storm::ObjectId>& ids) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  // A lease-less push (source_epoch 0, no TTL): receivers keep the copies
  // as their own, with or without a ReplicaManager.
  CacheReplicaPushMessage push;
  for (storm::ObjectId id : ids) {
    BP_ASSIGN_OR_RETURN(ResultItem item, ReadShared(id));
    push.items.push_back(std::move(item));
  }
  Bytes encoded = push.Encode();
  for (NodeId peer : peers_.Nodes()) {
    SendCompressed(peer, kCacheReplicaPushType, encoded);
  }
  return Status::OK();
}

Result<ResultItem> BestPeerNode::ReadShared(storm::ObjectId id) {
  BP_ASSIGN_OR_RETURN(Bytes content, storage_->Get(id));
  return ResultItem{id, "obj-" + std::to_string(id), std::move(content)};
}

const QuerySession* BestPeerNode::FindSession(uint64_t query_id) const {
  auto it = sessions_.find(query_id);
  return it == sessions_.end() ? nullptr : &it->second;
}

NodeTelemetry BestPeerNode::TelemetrySnapshot() const {
  NodeTelemetry t;
  t.peer_capacity = peers_.capacity();
  for (const PeerInfo& info : peers_.Snapshot()) {
    PeerTelemetry row;
    row.info = info;
    auto hint = store_size_hints_.find(info.node);
    if (hint != store_size_hints_.end()) row.store_size_hint = hint->second;
    t.peers.push_back(std::move(row));
  }
  for (const auto& [id, session] : sessions_) {
    if (!session.finalized()) ++t.sessions_inflight;
  }
  t.peer_evictions = peer_evictions_.value();
  t.reconfigurations = reconfigurations_.value();
  if (replica_mgr_ != nullptr) {
    t.replica_leases = replica_mgr_->replica_count();
    t.replica_promotions = replica_mgr_->promotions();
  }
  t.replica_pushes = replica_pushes_.value();
  t.replicas_expired = replicas_expired_.value();
  t.replicas_stored = replicas_stored_;
  if (replica_mgr_ != nullptr) {
    t.leases_revoked = replica_mgr_->leases_revoked();
  }
  return t;
}

void BestPeerNode::SendCompressed(NodeId dst, uint32_t type,
                                  const Bytes& payload, uint64_t flow) {
  auto compressed = codec_->Compress(payload);
  if (!compressed.ok()) {
    BP_LOG(Error) << "compress failed: " << compressed.status().ToString();
    return;
  }
  transport_->Send(dst, type, std::move(compressed).value(), 0, flow);
}

Result<Bytes> BestPeerNode::DecodePayload(const net::Message& msg) const {
  return codec_->Decompress(msg.payload);
}

void BestPeerNode::OnSearchResult(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto result = SearchResultMessage::Decode(payload.value());
  if (!result.ok()) {
    BP_LOG(Warn) << "bad search result: " << result.status().ToString();
    return;
  }
  auto it = sessions_.find(result->query_id);
  if (it == sessions_.end()) return;  // Not ours (or long forgotten).
  if (it->second.finalized()) {
    // Straggler past the deadline: the answer set is frozen.
    late_results_.Increment();
    return;
  }

  // A "not modified" reply is materialized from the slice snapshot taken
  // at launch — and only on an exact epoch match. A slice that was
  // evicted or invalidated mid-flight makes the reply an orphan, which is
  // dropped rather than ever served stale.
  auto cached_ids = std::make_shared<std::vector<uint64_t>>();
  bool from_cache = false;
  if (result->cache_epoch != 0 &&
      (result->cache_flags & SearchResultMessage::kCacheNotModified) != 0) {
    const cache::CachedSlice* slice = nullptr;
    auto snap_it = probe_snapshots_.find(result->query_id);
    if (snap_it != probe_snapshots_.end()) {
      auto s = snap_it->second.find(msg.src);
      if (s != snap_it->second.end() &&
          s->second.epoch == result->cache_epoch) {
        slice = &s->second;
      }
    }
    if (slice == nullptr) {
      cache_notmod_orphans_.Increment();
      return;
    }
    *cached_ids = slice->ids;
    from_cache = true;
    cache_remote_hits_.Increment();
    transport_->RecordFlight({.type = obs::EventType::kCacheHit,
                              .peer = msg.src,
                              .flow = result->query_id,
                              .a = cached_ids->size(),
                              .b = result->cache_epoch});
  }

  results_received_.Increment();
  answers_received_c_->Add(from_cache ? cached_ids->size()
                                      : result->items.size());
  result_hops_->Observe(static_cast<double>(result->hops));
  if (result->responder_object_count > 0) {
    store_size_hints_[msg.src] = result->responder_object_count;
  }

  // A stale probe: we asked this responder "unchanged since epoch E?"
  // and its answer came back at a different epoch — the conditional
  // round trip was wasted. These are what gossiped epoch bumps eliminate
  // (the slice is invalidated before the query launches, so no probe is
  // armed for it). Counting is observational only.
  if (result->cache_epoch != 0 && !from_cache) {
    auto snap_it = probe_snapshots_.find(result->query_id);
    if (snap_it != probe_snapshots_.end()) {
      auto s = snap_it->second.find(msg.src);
      if (s != snap_it->second.end() &&
          s->second.epoch != result->cache_epoch) {
        cache_stale_probes_.Increment();
      }
    }
  }

  // A full reply from a cache-probing responder refreshes the base's
  // slice for it, so the next query for the same key can go conditional.
  if (result->cache_epoch != 0 && !from_cache && result_cache_ != nullptr) {
    auto norm = storm::QueryExpr::NormalizeQuery(it->second.keyword());
    if (norm.ok()) {
      cache::CachedSlice slice;
      slice.source = msg.src;
      slice.epoch = result->cache_epoch;
      slice.hops = result->hops;
      slice.ids.reserve(result->items.size());
      for (const auto& item : result->items) slice.ids.push_back(item.id);
      result_cache_->InsertSlice(norm.value(), std::move(slice));
    }
  }

  // Charge per-message handling at the base node, then record.
  auto record = std::make_shared<SearchResultMessage>(std::move(*result));
  NodeId responder = msg.src;
  transport_->RunCpu(
      net::kResultHandlingCost,
      [this, record, responder, cached_ids, from_cache]() {
        auto session_it = sessions_.find(record->query_id);
        if (session_it == sessions_.end()) return;
        if (session_it->second.finalized()) {
          // Deadline fired while this result sat in the CPU queue.
          late_results_.Increment();
          return;
        }
        ResponseEvent event;
        event.time = transport_->clock().now();
        event.node = responder;
        event.hops = record->hops;
        std::vector<uint64_t> ids;
        if (from_cache) {
          ids = *cached_ids;
        } else {
          ids.reserve(record->items.size());
          for (const auto& item : record->items) ids.push_back(item.id);
        }
        event.answers = ids.size();
        session_it->second.RecordResultWithIds(event, ids);

        if (record->mode == static_cast<uint8_t>(AnswerMode::kIndicate) &&
            config_.auto_fetch) {
          FetchObjects(responder, record->query_id, ids);
        }
      },
      "result.handle", record->query_id);
}

// ------------------------------------------------- hot-answer replication

void BestPeerNode::OnAnswerServed(std::string_view key,
                                  const std::vector<uint64_t>& matches) {
  if (replica_mgr_ == nullptr || result_cache_ == nullptr ||
      storage_ == nullptr || matches.empty()) {
    return;
  }
  uint32_t frequency = result_cache_->EstimateFrequency(key);
  if (!replica_mgr_->ShouldPromote(std::string(key), frequency,
                                   transport_->clock().now())) {
    return;
  }
  PushHotReplicas(matches);
}

void BestPeerNode::PushHotReplicas(const std::vector<uint64_t>& ids) {
  CacheReplicaPushMessage push;
  push.source_epoch = storage_->mutation_epoch() + 1;
  push.ttl = config_.replica_ttl;
  for (uint64_t id : ids) {
    auto item = ReadShared(id);
    if (!item.ok()) continue;  // Deleted since the answer was served.
    push.items.push_back(std::move(item).value());
  }
  if (push.items.empty()) return;

  std::vector<NodeId> targets;
  if (config_.qos_replica_placement) {
    // Placement-aware path: score candidates by the QoS telemetry the
    // node already keeps per direct peer, and push only to the best
    // kQosReplicaFanout of them — instead of broadcasting to every
    // direct neighbor. Peers already holding a fresh lease on every
    // object of this push are skipped outright (the gossiped lease book
    // is what keeps that knowledge current across expiries).
    std::vector<std::pair<NodeId, cache::PeerQoS>> candidates;
    for (const PeerInfo& info : peers_.Snapshot()) {
      bool fully_leased = false;
      auto holder_it = lease_book_.find(info.node);
      if (holder_it != lease_book_.end()) {
        fully_leased = true;
        for (const ResultItem& item : push.items) {
          auto lease = holder_it->second.find(item.id);
          if (lease == holder_it->second.end() ||
              lease->second != push.source_epoch) {
            fully_leased = false;
            break;
          }
        }
      }
      if (fully_leased) continue;
      cache::PeerQoS qos;
      qos.rtt_us = static_cast<double>(info.last_response_time);
      qos.failures = info.consecutive_failures;
      qos.bandwidth_bytes_per_us = transport_->link().bytes_per_us;
      candidates.emplace_back(info.node, qos);
    }
    targets =
        cache::ReplicaManager::SelectTargets(candidates, kQosReplicaFanout);
  } else {
    targets = peers_.Nodes();
  }

  Bytes encoded = push.Encode();
  for (NodeId peer : targets) {
    SendCompressed(peer, kCacheReplicaPushType, encoded);
    replica_pushes_.Increment();
    if (config_.qos_replica_placement) {
      for (const ResultItem& item : push.items) {
        lease_book_[peer][item.id] = push.source_epoch;
        if (gossip_ != nullptr) {
          gossip_->AnnounceLeaseGrant(item.id, peer, push.source_epoch);
        }
      }
    }
    transport_->RecordFlight({.type = obs::EventType::kReplicaPush,
                              .peer = peer,
                              .a = push.items.size(),
                              .b = push.source_epoch});
  }
}

void BestPeerNode::OnCacheReplicaPush(const net::Message& msg) {
  if (storage_ == nullptr) return;
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto push = CacheReplicaPushMessage::Decode(payload.value());
  if (!push.ok()) return;
  // A hot push carries the pusher's IndexEpoch (never 0) and is leased;
  // a §6 ReplicateObjects push carries 0 and is stored untracked. Leased
  // replication is opt-in on the *receiver* too: without a manager the
  // push is ignored, so a mixed fleet can't grow unmanaged copies.
  const bool leased = push->source_epoch != 0;
  if (leased && replica_mgr_ == nullptr) return;
  SimTime cost = net::kFetchPerObjectCost *
                 static_cast<SimTime>(push->items.size());
  auto items = std::make_shared<std::vector<ResultItem>>(
      std::move(push->items));
  int64_t ttl = push->ttl;
  NodeId source = msg.src;
  transport_->RunCpu(cost, [this, items, ttl, source, leased]() {
    for (const auto& item : *items) {
      if (storage_->Contains(item.id)) {
        // An object we own outright (the original, or a §6 replica)
        // must never be expired by a lease; only refresh leases on
        // copies this manager planted.
        if (!leased || !replica_mgr_->Tracks(item.id)) continue;
      } else {
        if (!storage_->Put(item.id, item.content).ok()) continue;
        ++replicas_stored_;
        if (!leased) continue;
      }
      uint64_t generation = replica_mgr_->NoteStored(item.id, source);
      if (ttl > 0) {
        storm::ObjectId id = item.id;
        transport_->clock().ScheduleAfter(
            ttl, [this, id, generation]() { ExpireReplica(id, generation); });
      }
    }
  });
}

void BestPeerNode::ExpireReplica(storm::ObjectId id, uint64_t generation) {
  if (replica_mgr_ == nullptr || storage_ == nullptr) return;
  if (!replica_mgr_->ShouldExpire(id, generation)) return;  // Re-leased.
  replica_mgr_->Remove(id);
  // The delete bumps the mutation epoch, so any cached slice naming this
  // replica goes stale with it — expiry can't leave stale answers behind.
  storage_->Delete(id).ok();
  replicas_expired_.Increment();
  // Tell the fleet (the pusher above all) that this lease ended, so the
  // next promotion re-places the object instead of assuming coverage.
  if (gossip_ != nullptr) gossip_->AnnounceLeaseExpire(id, generation);
  transport_->RecordFlight({.type = obs::EventType::kReplicaExpire, .a = id});
}

void BestPeerNode::FetchObjects(NodeId responder, uint64_t query_id,
                                const std::vector<storm::ObjectId>& ids) {
  fetches_issued_c_->Increment();
  FetchRequestMessage req;
  req.query_id = query_id;
  req.ids = ids;
  SendCompressed(responder, kFetchReqType, req.Encode(), query_id);
}

void BestPeerNode::OnFetchRequest(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto req = FetchRequestMessage::Decode(payload.value());
  if (!req.ok()) return;
  if (storage_ == nullptr) return;

  auto response = std::make_shared<FetchResponseMessage>();
  response->query_id = req->query_id;
  for (storm::ObjectId id : req->ids) {
    auto item = ReadShared(id);
    // It is possible that the target node "may have removed the desired
    // content or updated it during the period of delay" (paper §2);
    // missing objects are simply skipped.
    if (!item.ok()) continue;
    response->items.push_back(std::move(item).value());
  }
  SimTime cost = net::kFetchPerObjectCost *
                 static_cast<SimTime>(req->ids.size());
  NodeId requester = msg.src;
  transport_->RunCpu(
      cost,
      [this, requester, response]() {
        SendCompressed(requester, kFetchRespType, response->Encode(),
                       response->query_id);
      },
      "fetch.serve", req->query_id);
}

void BestPeerNode::OnFetchResponse(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto resp = FetchResponseMessage::Decode(payload.value());
  if (!resp.ok()) return;
  auto it = sessions_.find(resp->query_id);
  if (it == sessions_.end()) return;
  if (it->second.finalized()) {
    late_results_.Increment();
    return;
  }
  ResponseEvent event;
  event.time = transport_->clock().now();
  event.node = msg.src;
  event.hops = 0;
  event.answers = resp->items.size();
  it->second.RecordFetch(event);
}

// ---------------------------------------------------------------- reconfig

Status BestPeerNode::Reconfigure(uint64_t query_id) {
  auto it = sessions_.find(query_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown query " + std::to_string(query_id));
  }
  const auto observations = it->second.Observations();
  auto new_peers = strategy_->SelectPeers(observations, peers_.Nodes(),
                                          config_.max_direct_peers);
  ApplyPeerSet(new_peers, observations);
  return Status::OK();
}

void BestPeerNode::ApplyPeerSet(
    const std::vector<NodeId>& new_peers,
    const std::vector<PeerObservation>& observations) {
  std::map<NodeId, PeerObservation> by_node;
  for (const auto& obs : observations) by_node[obs.node] = obs;

  bool changed = false;
  uint64_t adopted = 0;
  uint64_t dropped = 0;
  // Drop peers not selected.
  for (NodeId old_peer : peers_.Nodes()) {
    bool keep = false;
    for (NodeId p : new_peers) {
      if (p == old_peer) {
        keep = true;
        break;
      }
    }
    if (!keep) {
      peers_.Remove(old_peer);
      peer_summaries_.erase(old_peer);
      RevokeLeasesFrom(old_peer);
      SendCompressed(old_peer, kPeerDisconnectType, Bytes{});
      changed = true;
      ++dropped;
    }
  }
  // Adopt newly selected nodes.
  for (NodeId p : new_peers) {
    if (p == node_ || peers_.Contains(p)) {
      // Refresh stats on retained peers.
      PeerInfo* info = peers_.Find(p);
      auto obs_it = by_node.find(p);
      if (info != nullptr && obs_it != by_node.end()) {
        info->last_answers = obs_it->second.answers;
        info->total_answers += obs_it->second.answers;
        info->last_hops = obs_it->second.hops;
        info->last_response_time = obs_it->second.first_response;
      }
      continue;
    }
    PeerInfo info;
    info.node = p;
    auto obs_it = by_node.find(p);
    if (obs_it != by_node.end()) {
      info.last_answers = obs_it->second.answers;
      info.total_answers = obs_it->second.answers;
      info.last_hops = obs_it->second.hops;
      info.last_response_time = obs_it->second.first_response;
    }
    peers_.Add(info, /*enforce_capacity=*/false);
    SendCompressed(p, kPeerConnectType, Bytes{});
    SendSummaryTo(p);
    changed = true;
    ++adopted;
  }
  if (adopted > 0) NoteGossipPeersChanged();
  if (changed) {
    reconfigurations_.Increment();
    transport_->RecordFlight(
        {.type = obs::EventType::kReconfig, .a = adopted, .b = dropped});
  }
}

// ---------------------------------------------------------------- active objects

void BestPeerNode::ShareActiveObject(const std::string& name,
                                     ActiveObject object) {
  active_objects_[name] = std::move(object);
}

void BestPeerNode::RequestActiveObject(NodeId provider,
                                       const std::string& name,
                                       AccessLevel level,
                                       ContentCallback callback) {
  uint64_t id = ++request_counter_;
  pending_content_[id] = std::move(callback);
  ActiveObjectRequest req;
  req.request_id = id;
  req.object_name = name;
  req.access_level = static_cast<uint8_t>(level);
  SendCompressed(provider, kActiveObjReqType, req.Encode());
}

void BestPeerNode::OnActiveObjectRequest(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto req = ActiveObjectRequest::Decode(payload.value());
  if (!req.ok()) return;

  auto response = std::make_shared<ActiveObjectResponse>();
  response->request_id = req->request_id;
  auto it = active_objects_.find(req->object_name);
  if (it != active_objects_.end()) {
    auto rendered = it->second.Render(
        static_cast<AccessLevel>(req->access_level), active_nodes_);
    if (rendered.ok()) {
      response->ok = true;
      response->content = std::move(rendered).value();
    }
  }
  NodeId requester = msg.src;
  transport_->RunCpu(net::kResultHandlingCost, [this, requester, response]() {
    SendCompressed(requester, kActiveObjRespType, response->Encode());
  });
}

void BestPeerNode::OnActiveObjectResponse(const net::Message& msg) {
  auto payload = DecodePayload(msg);
  if (!payload.ok()) return;
  auto resp = ActiveObjectResponse::Decode(payload.value());
  if (!resp.ok()) return;
  auto it = pending_content_.find(resp->request_id);
  if (it == pending_content_.end()) return;
  ContentCallback callback = std::move(it->second);
  pending_content_.erase(it);
  if (!callback) return;
  if (resp->ok) {
    callback(std::move(resp->content));
  } else {
    callback(Status::NotFound("active object unavailable"));
  }
}

}  // namespace bestpeer::core
