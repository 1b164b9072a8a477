#include "core/node.h"

#include <algorithm>
#include <set>
#include <utility>

#include "core/search_agent.h"
#include "net/cost_model.h"
#include "util/logging.h"

namespace bestpeer::core {

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
  BP_ASSIGN_OR_RETURN(std::shared_ptr<const Codec> codec,
                      MakeCodec(config_.codec));
  BP_ASSIGN_OR_RETURN(strategy_, MakeReconfigStrategy(config_.strategy));
  BP_RETURN_IF_ERROR(RegisterBuiltinAgents(&infra_->agent_registry));

  metrics::Registry* reg = config_.metrics;
  if (reg != nullptr) {
    results_received_.set_total(reg->GetCounter("core.results_received"));
    answers_received_c_ = reg->GetCounter("core.answers_received");
    reconfigurations_.set_total(reg->GetCounter("core.reconfigurations"));
    peer_evictions_.set_total(reg->GetCounter("core.peer_evictions"));
    result_hops_ = reg->GetHistogram("core.result_hops");
  }
  io_ = std::make_unique<NodeIo>(transport_, codec);
  sessions_ = std::make_unique<SessionTable>(
      transport_, config_.query_deadline, reg,
      [this](uint64_t query_id) { FinalizeSession(query_id); });

  liglo::LigloClientOptions liglo_options;
  liglo_options.max_retries = config_.liglo_max_retries;
  liglo_options.metrics = reg;
  liglo_ = std::make_unique<liglo::LigloClient>(
      transport_, io_->dispatcher(), &infra_->ip_directory, liglo_options);

  agent::AgentRuntimeOptions agent_options;
  agent_options.seen_expiry = config_.agent_seen_expiry;
  agent_options.codec = codec;
  agent_options.metrics = reg;
  runtime_ = std::make_unique<agent::AgentRuntime>(
      transport_, &infra_->agent_registry, &infra_->code_cache, this,
      [this]() { return peers_.Nodes(); }, agent_options);

  io_->HandleRaw(agent::kAgentTransferType, "agent.migrate",
                 [this](const net::Message& m) {
                   Status s = runtime_->OnMessage(m);
                   if (!s.ok()) {
                     BP_LOG(Warn) << "agent transfer failed at node " << node_
                                  << ": " << s.ToString();
                   }
                 });
  io_->Handle(kSearchResultType, "search.result", this,
              &BestPeerNode::OnSearchResult);
  io_->HandleRaw(kPeerConnectType, "peer.connect",
                 [this](const net::Message& m) { OnPeerConnect(m.src); });
  io_->HandleRaw(kPeerDisconnectType, "peer.disconnect",
                 [this](const net::Message& m) { OnPeerDisconnect(m.src); });

  // Feature flags are read only here and in the Replicas constructor: an
  // off feature is never built.
  if (config_.enable_gossip) {
    gossip::GossipOptions go;
    go.fanout = config_.gossip_fanout;
    go.round_interval = config_.gossip_interval;
    go.hot_rounds = config_.gossip_hot_rounds;
    go.seed = config_.gossip_seed;
    go.metrics = reg;
    gossip_ = std::make_unique<gossip::GossipAgent>(transport_, go);
    gossip_->SetPeerProvider([this]() { return peers_.Nodes(); });
    gossip_->SetApplyHook(
        [this](const gossip::GossipItem& item) { OnGossipApply(item); });
    io_->HandleRaw(gossip::kGossipMsgType, "gossip.frame",
                   [this](const net::Message& m) { gossip_->OnMessage(m); });
  }
  if (config_.enable_result_cache) {
    cache_probe_ =
        std::make_unique<CacheProbe>(*io_, reg, config_.enable_gossip);
  }
  if (config_.enable_content_summaries) {
    summaries_ =
        std::make_unique<ContentSummaries>(*io_, storage_, peers_, reg);
  }
  watch_ = std::make_unique<PeerWatch>(*io_);
  active_objects_ = std::make_unique<ActiveObjects>(*io_);
  shipping_ = std::make_unique<ObjectShipping>(
      *io_, storage_, peers_, *sessions_, *runtime_, infra_->code_cache, reg);
  replicas_ = std::make_unique<Replicas>(*io_, storage_, peers_, config_,
                                         result_cache(), gossip_.get());
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
  if (config_.use_index_search || summaries_ != nullptr) {
    opts.build_index = true;
  }
  BP_ASSIGN_OR_RETURN(storage_, storm::Storm::Open(opts));
  if (cache_probe_ != nullptr || summaries_ != nullptr || gossip_ != nullptr) {
    // StorM epoch hook: every insert/delete bumps the mutation epoch, which
    // is what lazily invalidates cached slices (they carry the epoch they
    // were computed at). The summary plane rides the same hook to refresh
    // what peers know about us, and the gossip plane floods the bump so
    // remote caches invalidate ahead of their next probe.
    storage_->SetMutationListener([this](uint64_t epoch) {
      if (cache_probe_ != nullptr) cache_probe_->OnStoreMutated(epoch);
      if (summaries_ != nullptr) summaries_->ScheduleRefresh();
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
  watch_->NotifyWatchers(UpdateNotifyMessage::Kind::kAdded, id);
  return Status::OK();
}

Status BestPeerNode::UnshareObject(storm::ObjectId id) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  BP_RETURN_IF_ERROR(storage_->Delete(id));
  watch_->NotifyWatchers(UpdateNotifyMessage::Kind::kRemoved, id);
  return Status::OK();
}

Status BestPeerNode::UpdateObject(storm::ObjectId id, const Bytes& content) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  BP_RETURN_IF_ERROR(storage_->Update(id, content));
  watch_->NotifyWatchers(UpdateNotifyMessage::Kind::kUpdated, id);
  return Status::OK();
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
        // carries (BPID, IP) pairs of nodes we may talk to directly).
        if (outcome.ok()) AdoptLigloPeers(outcome->peers);
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
              DropPeer(owners[i]);
            }
          }
          // Replace dropped peers with fresh ones from the LIGLO.
          ReplenishPeersIfIsolated();
        }
        if (callback) callback(std::move(outcome));
      });
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
        if (peers.ok()) AdoptLigloPeers(peers.value());
      });
}

void BestPeerNode::AdoptLigloPeers(
    const std::vector<liglo::PeerEntry>& entries) {
  for (const auto& entry : entries) {
    if (peers_.size() >= config_.max_direct_peers) break;
    auto peer_node = infra_->ip_directory.Resolve(entry.ip);
    // Skip stale addresses, and this node's own membership: after a lost
    // register reply, the retried registration's sample lists the first.
    if (!peer_node.ok() || peer_node.value() == node_) continue;
    PeerInfo info;
    info.node = peer_node.value();
    info.bpid = entry.bpid;
    info.ip = entry.ip;
    AdoptPeer(info);
  }
  NoteGossipPeersChanged();
}

// ---------------------------------------------------------------- peers

void BestPeerNode::AddDirectPeerLocal(NodeId peer) {
  PeerInfo info;
  info.node = peer;
  peers_.Add(info, /*enforce_capacity=*/false);
  NoteGossipPeersChanged();
}

bool BestPeerNode::AdoptPeer(const PeerInfo& info, bool send_notice) {
  if (!peers_.Add(info, /*enforce_capacity=*/false)) return false;
  if (send_notice) io_->Send(info.node, kPeerConnectType, Bytes{});
  if (summaries_ != nullptr) summaries_->SendTo(info.node);
  return true;
}

void BestPeerNode::DropPeer(NodeId peer) {
  peers_.Remove(peer);
  if (summaries_ != nullptr) summaries_->Forget(peer);
  replicas_->RevokeLeasesFrom(peer);
}

void BestPeerNode::OnPeerConnect(NodeId src) {
  if (!peers_.Contains(src) && peers_.size() >= config_.AcceptCap()) {
    // At the inbound cap: refuse so the other side drops the link too.
    io_->Send(src, kPeerDisconnectType, Bytes{});
    return;
  }
  // The opener sent its notice and summary; answer with our summary so
  // both link ends can prune.
  PeerInfo info;
  info.node = src;
  if (AdoptPeer(info, /*send_notice=*/false)) NoteGossipPeersChanged();
}

void BestPeerNode::OnPeerDisconnect(NodeId src) {
  DropPeer(src);
  ReplenishPeersIfIsolated();
}

// ---------------------------------------------------------------- gossip

void BestPeerNode::NoteGossipPeersChanged() {
  if (gossip_ != nullptr) gossip_->NotifyPeersChanged();
}

void BestPeerNode::OnGossipApply(const gossip::GossipItem& item) {
  if (cache_probe_ != nullptr) cache_probe_->OnGossipApply(item);
  replicas_->OnGossipApply(item);
}

// ---------------------------------------------------------------- querying

Result<uint64_t> BestPeerNode::LaunchAgent(agent::Agent& agent,
                                           uint64_t query_id,
                                           const std::string& keyword,
                                           uint16_t ttl,
                                           const std::vector<NodeId>& skip) {
  if (ttl == 0) ttl = config_.default_ttl;
  sessions_->Open(query_id, keyword, config_.answer_mode);
  std::vector<NodeId> targets = peers_.Nodes();
  std::erase_if(targets, [&skip](NodeId peer) {
    return std::find(skip.begin(), skip.end(), peer) != skip.end();
  });
  BP_RETURN_IF_ERROR(runtime_->Launch(query_id, agent, ttl, targets));
  sessions_->ArmDeadline(query_id);
  return query_id;
}

void BestPeerNode::FinalizeSession(uint64_t query_id) {
  const QuerySession* session = sessions_->Finalize(query_id);
  if (session == nullptr) return;
  UpdatePeerHealth(*session);
  if (cache_probe_ != nullptr) cache_probe_->Forget(query_id);
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
    DropPeer(peer);
    io_->Send(peer, kPeerDisconnectType, Bytes{});
    peer_evictions_.Increment();
  }
  if (!evicted.empty()) ReplenishPeersIfIsolated(/*below_capacity=*/true);
}

Result<uint64_t> BestPeerNode::IssueSearch(const std::string& keyword,
                                           uint16_t ttl) {
  const uint64_t query_id = sessions_->NextId();
  SearchAgent agent(query_id, keyword, config_.answer_mode);
  if (cache_probe_ != nullptr) cache_probe_->Arm(query_id, keyword, agent);
  if (config_.use_index_search) {
    agent.EnableIndexSearch();
  }
  std::vector<NodeId> skip;
  if (summaries_ != nullptr) skip = summaries_->SkipSet(keyword);
  return LaunchAgent(agent, query_id, keyword, ttl, skip);
}

Result<uint64_t> BestPeerNode::IssueCompute(const std::string& filter_name,
                                            const Bytes& params,
                                            uint16_t ttl) {
  const uint64_t query_id = sessions_->NextId();
  ComputeAgent agent(query_id, filter_name, params);
  return LaunchAgent(agent, query_id, filter_name, ttl, /*skip=*/{});
}

void BestPeerNode::OnSearchResult(NodeId responder,
                                  SearchResultMessage& result) {
  QuerySession* session = sessions_->Live(result.query_id);
  if (session == nullptr) return;

  // A "not modified" reply names no items: its answer is rebuilt from the
  // slice snapshot taken at launch, or the reply is dropped.
  const bool not_modified =
      result.cache_epoch != 0 &&
      (result.cache_flags & SearchResultMessage::kCacheNotModified) != 0;
  std::vector<uint64_t> ids;
  if (not_modified) {
    const cache::CachedSlice* slice =
        cache_probe_ != nullptr ? cache_probe_->NotModified(responder, result)
                                : nullptr;
    if (slice == nullptr) return;
    ids = slice->ids;
  } else {
    ids.reserve(result.items.size());
    for (const auto& item : result.items) ids.push_back(item.id);
  }

  results_received_.Increment();
  answers_received_c_->Add(ids.size());
  result_hops_->Observe(static_cast<double>(result.hops));
  if (result.responder_object_count > 0) {
    shipping_->NoteStoreSize(responder, result.responder_object_count);
  }
  if (cache_probe_ != nullptr && result.cache_epoch != 0 && !not_modified) {
    cache_probe_->OnFullReply(responder, result, session->keyword());
  }

  // Charge per-message handling at the base node, then record.
  const uint64_t query_id = result.query_id;
  const uint16_t hops = result.hops;
  const bool fetch =
      result.mode == static_cast<uint8_t>(AnswerMode::kIndicate) &&
      config_.auto_fetch;
  transport_->RunCpu(
      net::kResultHandlingCost,
      [this, query_id, hops, fetch, responder, ids = std::move(ids)]() {
        // The deadline may have fired while this sat in the CPU queue.
        QuerySession* live = sessions_->Live(query_id);
        if (live == nullptr) return;
        live->RecordResultWithIds({.time = transport_->clock().now(),
                                   .node = responder,
                                   .hops = hops,
                                   .answers = ids.size()},
                                  ids);
        if (fetch) shipping_->FetchObjects(responder, query_id, ids);
      },
      "result.handle", query_id);
}

// ---------------------------------------------------------------- reconfig

Status BestPeerNode::Reconfigure(uint64_t query_id) {
  const QuerySession* session = sessions_->Find(query_id);
  if (session == nullptr) {
    return Status::NotFound("unknown query " + std::to_string(query_id));
  }
  const auto observations = session->Observations();
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

  uint64_t adopted = 0;
  uint64_t dropped = 0;
  // Drop peers not selected.
  for (NodeId old_peer : peers_.Nodes()) {
    if (std::find(new_peers.begin(), new_peers.end(), old_peer) !=
        new_peers.end()) {
      continue;
    }
    DropPeer(old_peer);
    io_->Send(old_peer, kPeerDisconnectType, Bytes{});
    ++dropped;
  }
  // Adopt newly selected nodes, then record what the query observed of
  // every selected one.
  for (NodeId p : new_peers) {
    if (p != node_ && !peers_.Contains(p)) {
      PeerInfo info;
      info.node = p;
      AdoptPeer(info);
      ++adopted;
    }
    PeerInfo* info = peers_.Find(p);
    auto obs_it = by_node.find(p);
    if (info == nullptr || obs_it == by_node.end()) continue;
    info->last_answers = obs_it->second.answers;
    info->total_answers += obs_it->second.answers;
    info->last_hops = obs_it->second.hops;
    info->last_response_time = obs_it->second.first_response;
  }
  if (adopted > 0) NoteGossipPeersChanged();
  if (adopted > 0 || dropped > 0) {
    reconfigurations_.Increment();
    transport_->RecordFlight(
        {.type = obs::EventType::kReconfig, .a = adopted, .b = dropped});
  }
}

}  // namespace bestpeer::core
