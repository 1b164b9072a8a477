#include "baseline/gnutella.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/cost_model.h"
#include "util/hash.h"
#include "util/strings.h"

namespace bestpeer::baseline {

// ---- wire formats -----------------------------------------------------

Status GnutellaDescriptor::Check() const {
  switch (function) {
    case GnutellaFunction::kPing:
    case GnutellaFunction::kPong:
    case GnutellaFunction::kPush:
    case GnutellaFunction::kQuery:
    case GnutellaFunction::kQueryHit:
      return Status::OK();
  }
  return Status::Corruption("unknown gnutella function");
}

// ---- sessions ----------------------------------------------------------

size_t GnutellaSession::total_files() const {
  size_t n = 0;
  for (const auto& h : hits_) n += h.answers;
  return n;
}

size_t GnutellaSession::responder_count() const {
  std::set<NodeId> seen;
  for (const auto& h : hits_) seen.insert(h.node);
  return seen.size();
}

SimTime GnutellaSession::completion_time() const {
  SimTime last = start_;
  for (const auto& h : hits_) last = std::max(last, h.time);
  return last - start_;
}

// ---- servant -----------------------------------------------------------

GnutellaNode::GnutellaNode(net::Transport* transport, GnutellaConfig config)
    : transport_(transport), node_(transport->local()), config_(config) {}

Result<std::unique_ptr<GnutellaNode>> GnutellaNode::Create(
    net::Transport* transport, GnutellaConfig config) {
  auto owned =
      std::unique_ptr<GnutellaNode>(new GnutellaNode(transport, config));
  BP_RETURN_IF_ERROR(owned->Init());
  return owned;
}

Status GnutellaNode::Init() {
  dispatcher_ = std::make_unique<net::Dispatcher>(transport_);
  dispatcher_->Register(
      kGnutellaDescriptorType,
      [this](const net::Message& m) { OnDescriptor(m); });
  dispatcher_->Register(kGnutellaPushOpenType,
                        [this](const net::Message&) {
                          ++push_opens_received_;
                        });
  return Status::OK();
}

void GnutellaNode::AddNeighborLocal(NodeId peer) {
  neighbors_.insert(peer);
}

std::vector<NodeId> GnutellaNode::Neighbors() const {
  return std::vector<NodeId>(neighbors_.begin(), neighbors_.end());
}

void GnutellaNode::ShareFile(const std::string& name, uint32_t size_bytes) {
  files_.emplace_back(name, size_bytes);
}

Guid GnutellaNode::MakeGuid() {
  Guid guid = {};
  uint64_t a = Mix64((static_cast<uint64_t>(node_) << 32) | ++guid_counter_);
  uint64_t b = Mix64(a ^ 0x9E3779B97F4A7C15ULL);
  std::memcpy(guid.data(), &a, 8);
  std::memcpy(guid.data() + 8, &b, 8);
  return guid;
}

uint64_t GnutellaNode::GuidKey(const Guid& guid) {
  uint64_t key;
  std::memcpy(&key, guid.data(), 8);
  return key;
}

Result<uint64_t> GnutellaNode::IssueQuery(const std::string& keywords,
                                          uint8_t ttl) {
  if (ttl == 0) ttl = config_.default_ttl;
  GnutellaDescriptor desc;
  desc.guid = MakeGuid();
  desc.function = GnutellaFunction::kQuery;
  desc.ttl = ttl;
  desc.hops = 0;
  GnutellaQuery query;
  query.keywords = keywords;
  desc.payload = query.Encode();

  uint64_t key = GuidKey(desc.guid);
  seen_.insert(key);
  sessions_.emplace(key, GnutellaSession(transport_->clock().now()));
  Flood(desc, /*skip=*/node_);
  return key;
}

void GnutellaNode::SendPing() {
  GnutellaDescriptor desc;
  desc.guid = MakeGuid();
  desc.function = GnutellaFunction::kPing;
  desc.ttl = config_.default_ttl;
  desc.hops = 0;
  seen_.insert(GuidKey(desc.guid));
  Flood(desc, node_);
}

void GnutellaNode::Flood(GnutellaDescriptor desc, NodeId skip) {
  for (NodeId n : neighbors_) {
    if (n == skip) continue;
    GnutellaDescriptor copy = desc;
    transport_->RunCpu(net::kGnutellaRouteCost, [this, n, copy]() {
      transport_->Send(n, kGnutellaDescriptorType, copy.Encode());
    });
  }
}

void GnutellaNode::OnDescriptor(const net::Message& msg) {
  auto desc = GnutellaDescriptor::Decode(msg.payload);
  if (!desc.ok()) return;
  switch (desc->function) {
    case GnutellaFunction::kQuery:
      HandleQuery(desc.value(), msg.src);
      break;
    case GnutellaFunction::kQueryHit:
      HandleQueryHit(desc.value(), msg.src);
      break;
    case GnutellaFunction::kPing:
      HandlePing(desc.value(), msg.src);
      break;
    case GnutellaFunction::kPong:
      HandlePong(desc.value(), msg.src);
      break;
    case GnutellaFunction::kPush:
      HandlePush(desc.value(), msg.src);
      break;
  }
}

void GnutellaNode::HandleQuery(const GnutellaDescriptor& desc,
                               NodeId from) {
  uint64_t key = GuidKey(desc.guid);
  if (!seen_.insert(key).second) {
    ++duplicates_dropped_;
    return;
  }
  // Remember the reverse route for QueryHits.
  query_routes_[key] = from;

  // Forward the query (TTL permitting).
  if (desc.ttl > 1) {
    GnutellaDescriptor fwd = desc;
    fwd.ttl = static_cast<uint8_t>(desc.ttl - 1);
    fwd.hops = static_cast<uint8_t>(desc.hops + 1);
    Flood(fwd, from);
    ++descriptors_routed_;
  }

  // Match against the local file names.
  auto query = GnutellaQuery::Decode(desc.payload);
  if (!query.ok()) return;
  GnutellaQueryHit hit;
  hit.responder = node_;
  uint32_t index = 0;
  for (const auto& [name, size] : files_) {
    if (ContainsKeyword(name, query->keywords)) {
      GnutellaQueryHit::FileEntry entry;
      entry.index = index;
      entry.size = size;
      entry.name = name;
      // Pad names to the modelled per-entry wire size.
      if (entry.name.size() < net::kGnutellaFileEntryBytes) {
        entry.name.resize(net::kGnutellaFileEntryBytes, ' ');
      }
      hit.files.push_back(std::move(entry));
    }
    ++index;
  }
  SimTime scan_cost = static_cast<SimTime>(files_.size()) *
                      net::kGnutellaFileMatchCost;
  if (hit.files.empty()) {
    // Still charge the scan.
    transport_->RunCpu(scan_cost, []() {});
    return;
  }
  GnutellaDescriptor reply;
  reply.guid = desc.guid;
  reply.function = GnutellaFunction::kQueryHit;
  reply.ttl = static_cast<uint8_t>(desc.hops + 1);
  reply.hops = 0;
  reply.payload = hit.Encode();
  // QueryHit goes back the way the Query came: to `from`.
  transport_->RunCpu(scan_cost, [this, from, reply]() {
    transport_->Send(from, kGnutellaDescriptorType, reply.Encode());
  });
}

void GnutellaNode::HandleQueryHit(const GnutellaDescriptor& desc,
                                  NodeId from) {
  uint64_t key = GuidKey(desc.guid);
  // Remember which neighbour can reach the responder (Push routing).
  {
    auto hit = GnutellaQueryHit::Decode(desc.payload);
    if (hit.ok()) push_routes_[hit->responder] = from;
  }
  auto session_it = sessions_.find(key);
  if (session_it != sessions_.end()) {
    // We initiated this query: consume the hit.
    auto hit = GnutellaQueryHit::Decode(desc.payload);
    if (!hit.ok()) return;
    core::ResponseEvent event;
    event.time = transport_->clock().now();
    event.node = hit->responder;
    event.hops = desc.hops;
    event.answers = hit->files.size();
    session_it->second.RecordHit(event);
    return;
  }
  // Route back along the reverse path.
  auto route = query_routes_.find(key);
  if (route == query_routes_.end()) return;  // No route: drop.
  if (desc.ttl == 0) return;
  GnutellaDescriptor fwd = desc;
  fwd.ttl = static_cast<uint8_t>(desc.ttl - 1);
  fwd.hops = static_cast<uint8_t>(desc.hops + 1);
  NodeId next = route->second;
  ++descriptors_routed_;
  SimTime cost =
      net::kGnutellaRouteCost +
      static_cast<SimTime>(static_cast<double>(desc.payload.size()) *
                           net::kRelayPerByteCostUs);
  transport_->RunCpu(cost, [this, next, fwd]() {
    transport_->Send(next, kGnutellaDescriptorType, fwd.Encode());
  });
}

void GnutellaNode::HandlePing(const GnutellaDescriptor& desc,
                              NodeId from) {
  uint64_t key = GuidKey(desc.guid);
  if (!seen_.insert(key).second) {
    ++duplicates_dropped_;
    return;
  }
  ping_routes_[key] = from;
  if (desc.ttl > 1) {
    GnutellaDescriptor fwd = desc;
    fwd.ttl = static_cast<uint8_t>(desc.ttl - 1);
    fwd.hops = static_cast<uint8_t>(desc.hops + 1);
    Flood(fwd, from);
  }
  // Answer with a Pong carrying our file count (as servants do).
  GnutellaDescriptor pong;
  pong.guid = desc.guid;
  pong.function = GnutellaFunction::kPong;
  pong.ttl = static_cast<uint8_t>(desc.hops + 1);
  pong.hops = 0;
  pong.payload = wire::Encode(
      GnutellaPong{node_, static_cast<uint32_t>(files_.size())});
  transport_->RunCpu(net::kGnutellaRouteCost, [this, from, pong]() {
    transport_->Send(from, kGnutellaDescriptorType, pong.Encode());
  });
}

void GnutellaNode::HandlePong(const GnutellaDescriptor& desc,
                              NodeId from) {
  (void)from;
  uint64_t key = GuidKey(desc.guid);
  if (sessions_.count(key) != 0 || ping_routes_.count(key) == 0) {
    ++pongs_received_;
    return;
  }
  auto route = ping_routes_.find(key);
  if (desc.ttl == 0) return;
  GnutellaDescriptor fwd = desc;
  fwd.ttl = static_cast<uint8_t>(desc.ttl - 1);
  fwd.hops = static_cast<uint8_t>(desc.hops + 1);
  NodeId next = route->second;
  transport_->RunCpu(net::kGnutellaRouteCost, [this, next, fwd]() {
    transport_->Send(next, kGnutellaDescriptorType, fwd.Encode());
  });
}

Status GnutellaNode::SendPush(uint64_t query_key, NodeId target_servent,
                              uint32_t file_index) {
  if (sessions_.count(query_key) == 0) {
    return Status::NotFound("not the initiator of that query");
  }
  auto route = push_routes_.find(target_servent);
  if (route == push_routes_.end()) {
    return Status::NotFound("no QueryHit route to servent " +
                            std::to_string(target_servent));
  }
  GnutellaDescriptor desc;
  desc.guid = MakeGuid();
  desc.function = GnutellaFunction::kPush;
  desc.ttl = config_.default_ttl;
  desc.hops = 0;
  GnutellaPush push;
  push.target_servent = target_servent;
  push.requester = node_;
  push.file_index = file_index;
  desc.payload = push.Encode();
  NodeId next = route->second;
  transport_->RunCpu(net::kGnutellaRouteCost, [this, next, desc]() {
    transport_->Send(next, kGnutellaDescriptorType, desc.Encode());
  });
  return Status::OK();
}

void GnutellaNode::HandlePush(const GnutellaDescriptor& desc,
                              NodeId from) {
  (void)from;
  auto push = GnutellaPush::Decode(desc.payload);
  if (!push.ok()) return;
  if (push->target_servent == node_) {
    // We are being pushed: open the data connection to the requester
    // ourselves (modelled as one out-of-band message carrying the file).
    ++pushes_served_;
    uint32_t size = 1024;
    if (push->file_index < files_.size()) {
      size = files_[push->file_index].second;
    }
    NodeId requester = push->requester;
    transport_->RunCpu(
        net::kGnutellaRouteCost, [this, requester, size]() {
          transport_->Send(requester, kGnutellaPushOpenType,
                         Bytes(size, 0));
        });
    return;
  }
  // Forward along the recorded QueryHit path.
  if (desc.ttl == 0) return;
  auto route = push_routes_.find(push->target_servent);
  if (route == push_routes_.end()) return;
  GnutellaDescriptor fwd = desc;
  fwd.ttl = static_cast<uint8_t>(desc.ttl - 1);
  fwd.hops = static_cast<uint8_t>(desc.hops + 1);
  NodeId next = route->second;
  ++descriptors_routed_;
  transport_->RunCpu(net::kGnutellaRouteCost, [this, next, fwd]() {
    transport_->Send(next, kGnutellaDescriptorType, fwd.Encode());
  });
}

const GnutellaSession* GnutellaNode::FindSession(uint64_t query_key) const {
  auto it = sessions_.find(query_key);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace bestpeer::baseline
