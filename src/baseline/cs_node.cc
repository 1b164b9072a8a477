#include "baseline/cs_node.h"

#include <algorithm>
#include <utility>

#include "net/cost_model.h"
#include "util/logging.h"
#include "util/wire.h"

namespace bestpeer::baseline {

namespace {

// ---- wire formats ----------------------------------------------------

struct QueryMessage {
  uint64_t query_id = 0;
  std::string keyword;

  static Status Wire(auto& m, auto& io) { return io(m.query_id, m.keyword); }
};

struct AnswerMessage {
  uint64_t query_id = 0;
  NodeId origin = kInvalidNode;
  std::vector<core::ResultItem> items;

  static Status Wire(auto& m, auto& io) {
    return io(m.query_id, m.origin, m.items);
  }
};

struct DoneMessage {
  uint64_t query_id = 0;

  static Status Wire(auto& m, auto& io) { return io(m.query_id); }
};

}  // namespace

size_t CsSession::total_answers() const {
  size_t n = 0;
  for (const auto& e : answers_) n += e.answers;
  return n;
}

size_t CsSession::responder_count() const {
  std::set<NodeId> seen;
  for (const auto& e : answers_) seen.insert(e.node);
  return seen.size();
}

SimTime CsSession::last_answer_time() const {
  SimTime last = start_;
  for (const auto& e : answers_) last = std::max(last, e.time);
  return last - start_;
}

SimTime CsSession::completion_time() const {
  return std::max(complete_time_ - start_, last_answer_time());
}

CsNode::CsNode(net::Transport* transport, CsConfig config)
    : transport_(transport),
      node_(transport->local()),
      config_(std::move(config)) {}

Result<std::unique_ptr<CsNode>> CsNode::Create(net::Transport* transport,
                                               CsConfig config) {
  auto owned =
      std::unique_ptr<CsNode>(new CsNode(transport, std::move(config)));
  BP_RETURN_IF_ERROR(owned->Init());
  return owned;
}

Status CsNode::Init() {
  BP_ASSIGN_OR_RETURN(codec_, MakeCodec(config_.codec));
  dispatcher_ = std::make_unique<net::Dispatcher>(transport_);
  dispatcher_->Register(
      kCsQueryType, [this](const net::Message& m) { OnQuery(m); });
  dispatcher_->Register(
      kCsAnswerType, [this](const net::Message& m) { OnAnswer(m); });
  dispatcher_->Register(kCsDoneType,
                        [this](const net::Message& m) { OnDone(m); });
  return Status::OK();
}

Status CsNode::InitStorage(const storm::StormOptions& options) {
  BP_ASSIGN_OR_RETURN(storage_, storm::Storm::Open(options));
  return Status::OK();
}

Status CsNode::ShareObject(storm::ObjectId id, const Bytes& content) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  return storage_->Put(id, content);
}

void CsNode::AddNeighborLocal(NodeId peer) { neighbors_.insert(peer); }

std::vector<NodeId> CsNode::Neighbors() const {
  return std::vector<NodeId>(neighbors_.begin(), neighbors_.end());
}

void CsNode::SendCompressed(NodeId dst, uint32_t type,
                            const Bytes& payload) {
  auto compressed = codec_->Compress(payload);
  if (!compressed.ok()) return;
  transport_->Send(dst, type, std::move(compressed).value());
}

Result<uint64_t> CsNode::IssueQuery(const std::string& keyword) {
  uint64_t query_id = (static_cast<uint64_t>(node_) << 32) | ++query_counter_;
  sessions_.emplace(query_id,
                    CsSession(query_id, transport_->clock().now()));

  RelayState state;
  state.is_base = true;
  state.parent = kInvalidNode;
  state.children.assign(neighbors_.begin(), neighbors_.end());
  state.keyword = keyword;
  state.local_done = true;  // The base does not scan its own store.
  relays_[query_id] = std::move(state);

  AdvanceForwarding(query_id);
  MaybeFinish(query_id);
  return query_id;
}

void CsNode::AdvanceForwarding(uint64_t query_id) {
  auto it = relays_.find(query_id);
  if (it == relays_.end()) return;
  RelayState& state = it->second;

  QueryMessage query;
  query.query_id = query_id;
  query.keyword = state.keyword;
  Bytes encoded = wire::Encode(query);

  if (config_.single_thread) {
    // SCS: one outstanding child connection at a time.
    if (state.next_child < state.children.size()) {
      SendCompressed(state.children[state.next_child], kCsQueryType, encoded);
      ++state.next_child;
    }
  } else {
    // MCS: all children in parallel.
    while (state.next_child < state.children.size()) {
      SendCompressed(state.children[state.next_child], kCsQueryType, encoded);
      ++state.next_child;
    }
  }
}

void CsNode::OnQuery(const net::Message& msg) {
  auto payload = codec_->Decompress(msg.payload);
  if (!payload.ok()) return;
  auto query = wire::Decode<QueryMessage>(payload.value());
  if (!query.ok()) return;

  if (relays_.count(query->query_id) != 0) {
    // Already participating (cyclic overlay): unblock the sender at once.
    DoneMessage done;
    done.query_id = query->query_id;
    SendCompressed(msg.src, kCsDoneType, wire::Encode(done));
    return;
  }

  RelayState state;
  state.parent = msg.src;
  state.keyword = query->keyword;
  for (NodeId n : neighbors_) {
    if (n != msg.src) state.children.push_back(n);
  }
  relays_[query->query_id] = std::move(state);

  uint64_t query_id = query->query_id;
  transport_->RunCpu(net::kCsQueryHandlingCost, [this, query_id]() {
    AdvanceForwarding(query_id);
    StartLocalScan(query_id);
  });
}

void CsNode::StartLocalScan(uint64_t query_id) {
  auto it = relays_.find(query_id);
  if (it == relays_.end()) return;
  RelayState& state = it->second;

  if (storage_ == nullptr) {
    state.local_done = true;
    MaybeFinish(query_id);
    return;
  }
  SimTime cost = 0;
  std::vector<storm::ObjectId> matches;
  bool answered = false;
  if (config_.use_index_search) {
    size_t touched = 0;
    auto indexed = storage_->IndexSearch(state.keyword, &touched);
    if (indexed.ok()) {
      cost = static_cast<SimTime>(touched) * net::kPerPostingCost;
      matches = std::move(indexed).value();
      answered = true;
    }
    // No index at this store: fall through to the scan.
  }
  if (!answered) {
    auto scan = storage_->ScanSearch(state.keyword);
    if (!scan.ok()) {
      state.local_done = true;
      MaybeFinish(query_id);
      return;
    }
    cost = static_cast<SimTime>(scan->objects_scanned) *
           net::kPerObjectMatchCost;
    matches = std::move(scan->matches);
  }
  transport_->RunCpu(cost, [this, query_id,
                                     matches = std::move(matches)]() {
    auto relay_it = relays_.find(query_id);
    if (relay_it == relays_.end()) return;
    RelayState& relay = relay_it->second;
    if (!matches.empty()) {
      AnswerMessage answer;
      answer.query_id = query_id;
      answer.origin = node_;
      for (storm::ObjectId id : matches) {
        core::ResultItem item;
        item.id = id;
        item.name = "obj-" + std::to_string(id);
        if (config_.ship_content) {
          auto content = storage_->Get(id);
          if (content.ok()) item.content = std::move(content).value();
        } else if (item.name.size() < net::kAnswerDescriptorBytes) {
          item.name.resize(net::kAnswerDescriptorBytes, ' ');
        }
        answer.items.push_back(std::move(item));
      }
      // Answers go to the parent: back along the query path.
      SendCompressed(relay.parent, kCsAnswerType, wire::Encode(answer));
    }
    relay.local_done = true;
    MaybeFinish(query_id);
  });
}

void CsNode::OnAnswer(const net::Message& msg) {
  auto payload = codec_->Decompress(msg.payload);
  if (!payload.ok()) return;
  auto answer = wire::Decode<AnswerMessage>(payload.value());
  if (!answer.ok()) return;

  auto it = relays_.find(answer->query_id);
  if (it == relays_.end()) return;
  RelayState& state = it->second;

  if (state.is_base) {
    auto session_it = sessions_.find(answer->query_id);
    if (session_it == sessions_.end()) return;
    core::ResponseEvent event;
    event.time = transport_->clock().now();
    event.node = answer->origin;
    event.hops = 0;
    event.answers = answer->items.size();
    session_it->second.RecordAnswer(event);
    return;
  }
  // Intermediate: relay immediately toward the base (implementation 2).
  ++relayed_answers_;
  NodeId parent = state.parent;
  Bytes reencoded = wire::Encode(*answer);
  SimTime cost =
      net::kCsRelayCost +
      static_cast<SimTime>(static_cast<double>(reencoded.size()) *
                           net::kRelayPerByteCostUs);
  transport_->RunCpu(
      cost, [this, parent, reencoded = std::move(reencoded)]() {
        SendCompressed(parent, kCsAnswerType, reencoded);
      });
}

void CsNode::OnDone(const net::Message& msg) {
  auto payload = codec_->Decompress(msg.payload);
  if (!payload.ok()) return;
  auto done = wire::Decode<DoneMessage>(payload.value());
  if (!done.ok()) return;

  auto it = relays_.find(done->query_id);
  if (it == relays_.end()) return;
  RelayState& state = it->second;
  ++state.children_done;
  if (config_.single_thread) AdvanceForwarding(done->query_id);
  MaybeFinish(done->query_id);
}

void CsNode::MaybeFinish(uint64_t query_id) {
  auto it = relays_.find(query_id);
  if (it == relays_.end()) return;
  RelayState& state = it->second;
  if (state.done_sent) return;
  if (!state.local_done) return;
  if (state.children_done < state.children.size()) return;

  state.done_sent = true;
  if (state.is_base) {
    auto session_it = sessions_.find(query_id);
    if (session_it != sessions_.end()) {
      session_it->second.MarkComplete(transport_->clock().now());
    }
    return;
  }
  DoneMessage done;
  done.query_id = query_id;
  SendCompressed(state.parent, kCsDoneType, wire::Encode(done));
}

const CsSession* CsNode::FindSession(uint64_t query_id) const {
  auto it = sessions_.find(query_id);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace bestpeer::baseline
