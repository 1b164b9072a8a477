#include "agent/agent_runtime.h"

#include <utility>

#include "net/cost_model.h"
#include "util/logging.h"

namespace bestpeer::agent {

AgentRuntime::AgentRuntime(net::Transport* transport,
                           const AgentRegistry* registry,
                           CodeCache* code_cache, AgentHost* host,
                           NeighborFn neighbors, AgentRuntimeOptions options)
    : transport_(transport),
      node_(transport->local()),
      registry_(registry),
      code_cache_(code_cache),
      host_(host),
      neighbors_(std::move(neighbors)),
      options_(std::move(options)) {
  // The launching node always has its own classes "loaded".
  transport_->RegisterTypeName(kAgentTransferType, "agent.migrate");
  if (options_.metrics != nullptr) {
    metrics::Registry* reg = options_.metrics;
    agents_received_.set_total(reg->GetCounter("agent.received"));
    duplicates_dropped_.set_total(reg->GetCounter("agent.duplicates_dropped"));
    agents_executed_.set_total(reg->GetCounter("agent.executed"));
    clones_sent_.set_total(reg->GetCounter("agent.migrations"));
    ttl_deaths_c_ = reg->GetCounter("agent.ttl_deaths");
    class_loads_c_ = reg->GetCounter("agent.class_loads");
    seen_expired_.set_total(reg->GetCounter("agent.expired"));
    serialize_bytes_c_ = reg->GetCounter("agent.serialize_bytes");
    reconstruct_us_c_ = reg->GetCounter("agent.reconstruct_us");
    hops_at_execute_ = reg->GetHistogram("agent.hops_at_execute");
  }
}

Status AgentRuntime::SendAgentTo(NodeId dst, const AgentMessage& msg) {
  Bytes encoded = msg.Encode();
  serialize_bytes_c_->Add(encoded.size());
  BP_ASSIGN_OR_RETURN(Bytes compressed, options_.codec->Compress(encoded));
  size_t extra = 0;
  if (!code_cache_->Has(dst, msg.class_name)) {
    BP_ASSIGN_OR_RETURN(extra, registry_->CodeSize(msg.class_name));
  }
  transport_->Send(dst, kAgentTransferType, std::move(compressed), extra,
                   /*flow=*/msg.agent_id);
  // b = shipped class bytes, 0 when the code was cached.
  transport_->RecordFlight({.type = obs::EventType::kAgentHop,
                            .peer = dst,
                            .flow = msg.agent_id,
                            .a = msg.hops,
                            .b = extra});
  clones_sent_.Increment();
  return Status::OK();
}

void AgentRuntime::Forward(const AgentMessage& msg, NodeId skip) {
  if (msg.ttl == 0) {
    // The agent dies here: its TTL ran out before the overlay was
    // exhausted (the coverage loss Fig. 8 quantifies).
    ttl_deaths_c_->Increment();
    return;
  }
  AgentMessage clone = msg;
  clone.ttl = static_cast<uint16_t>(msg.ttl - 1);
  clone.hops = static_cast<uint16_t>(msg.hops + 1);
  for (NodeId n : neighbors_()) {
    if (n == skip || n == node_ || n == msg.origin) continue;
    // Per-clone handling cost, then the clone hits the wire.
    transport_->RunCpu(
        net::kAgentForwardCost,
        [this, n, clone]() {
          Status s = SendAgentTo(n, clone);
          if (!s.ok()) {
            BP_LOG(Warn) << "forward to " << n << " failed: " << s.ToString();
          }
        },
        "agent.forward", msg.agent_id);
  }
}

struct AgentRuntime::Execution {
  Execution(std::unique_ptr<Agent> a, AgentContext c)
      : agent(std::move(a)), ctx(std::move(c)) {}

  std::unique_ptr<Agent> agent;
  AgentContext ctx;
  Status status;
  /// ctx's sends, compressed; a send whose compression failed is dropped.
  std::vector<AgentContext::Send> sends;
};

Status AgentRuntime::ExecuteIncoming(const AgentMessage& msg) {
  BP_ASSIGN_OR_RETURN(auto agent, registry_->Create(msg.class_name));
  BP_RETURN_IF_ERROR(agent->LoadState(msg.state));

  SimTime setup = net::kAgentReconstructCost;
  if (!code_cache_->Has(node_, msg.class_name)) {
    setup += net::kAgentClassLoadCost;
    code_cache_->Load(node_, msg.class_name);
    class_loads_c_->Increment();
  }
  reconstruct_us_c_->Add(static_cast<uint64_t>(setup));

  const bool store_only = agent->store_only();
  auto run = std::make_shared<Execution>(
      std::move(agent),
      AgentContext(host_, node_, msg.origin, msg.hops, msg.ttl));
  // The work touches only the execution and the node's store, so a
  // store-only agent's work may run on another thread.
  auto work = [run, codec = options_.codec]() {
    run->status = run->agent->Execute(run->ctx);
    if (!run->status.ok()) return;
    for (AgentContext::Send& send : run->ctx.mutable_sends()) {
      auto compressed = codec->Compress(send.payload);
      if (!compressed.ok()) continue;
      run->sends.push_back(
          {send.dst, send.type, std::move(compressed).value()});
    }
  };
  auto then = [this, run, setup, hops = msg.hops, flow = msg.agent_id]() {
    FinishExecution(*run, setup, hops, flow);
  };
  if (store_only) {
    transport_->Offload(std::move(work), std::move(then));
  } else {
    work();
    then();
  }
  return Status::OK();
}

void AgentRuntime::FinishExecution(Execution& run, SimTime setup,
                                   uint16_t hops, FlowId flow) {
  if (!run.status.ok()) {
    BP_LOG(Warn) << "agent execution failed at node " << node_ << ": "
                 << run.status.ToString();
    return;
  }
  agents_executed_.Increment();
  hops_at_execute_->Observe(static_cast<double>(hops));

  SimTime total = setup + run.ctx.cpu_cost();
  // The setup/scan split lets the critical-path analyzer separate agent
  // overhead (reconstruct + class load) from useful store-scan time.
  std::vector<std::pair<std::string, uint64_t>> span_args;
  if (transport_->trace() != nullptr) {
    span_args.emplace_back("setup", static_cast<uint64_t>(setup));
    span_args.emplace_back("scan", static_cast<uint64_t>(run.ctx.cpu_cost()));
  }
  net::Transport* transport = transport_;
  transport_->RunCpu(
      total,
      [transport, flow, sends = std::move(run.sends)]() mutable {
        for (AgentContext::Send& send : sends) {
          transport->Send(send.dst, send.type, std::move(send.payload), 0,
                          flow);
        }
      },
      "agent.execute", flow, std::move(span_args));
}

Status AgentRuntime::Launch(uint64_t agent_id, Agent& agent, uint16_t ttl,
                            const std::vector<NodeId>& targets) {
  if (!registry_->Contains(agent.class_name())) {
    return Status::FailedPrecondition("agent class not registered: " +
                                      std::string(agent.class_name()));
  }
  code_cache_->Load(node_, agent.class_name());
  Sight(agent_id);
  if (ttl == 0) return Status::OK();

  AgentMessage msg;
  msg.agent_id = agent_id;
  msg.class_name = std::string(agent.class_name());
  msg.origin = node_;
  msg.ttl = static_cast<uint16_t>(ttl - 1);
  msg.hops = 1;
  msg.state = agent.SaveState();

  for (NodeId target : targets) {
    if (target == node_) continue;
    BP_RETURN_IF_ERROR(SendAgentTo(target, msg));
  }
  return Status::OK();
}

bool AgentRuntime::Sight(uint64_t agent_id) {
  const SimTime now = transport_->clock().now();
  auto it = seen_.find(agent_id);
  if (it != seen_.end()) {
    it->second->second = now;
    seen_order_.splice(seen_order_.begin(), seen_order_, it->second);
    return false;
  }
  seen_order_.emplace_front(agent_id, now);
  seen_.emplace(agent_id, seen_order_.begin());
  if (seen_order_.size() > kSeenCapacity) {
    seen_.erase(seen_order_.back().first);
    seen_order_.pop_back();
  }
  return true;
}

void AgentRuntime::PruneSeen() {
  if (options_.seen_expiry <= 0) return;
  const SimTime cutoff = transport_->clock().now() - options_.seen_expiry;
  // Sightings are newest first, so the expired ones are a tail.
  while (!seen_order_.empty() && seen_order_.back().second < cutoff) {
    // A lost agent (dropped in flight, or died with a crashed host)
    // never comes back to deregister itself — age its record out so
    // the table stays bounded under churn and faults.
    seen_.erase(seen_order_.back().first);
    seen_order_.pop_back();
    seen_expired_.Increment();
  }
}

Status AgentRuntime::OnMessage(const net::Message& msg) {
  if (msg.type != kAgentTransferType) {
    return Status::InvalidArgument("not an agent transfer");
  }
  BP_ASSIGN_OR_RETURN(Bytes decoded, options_.codec->Decompress(msg.payload));
  BP_ASSIGN_OR_RETURN(AgentMessage agent_msg, AgentMessage::Decode(decoded));
  agents_received_.Increment();

  PruneSeen();
  if (!Sight(agent_msg.agent_id)) {
    // Still circulating: the sighting was refreshed.
    duplicates_dropped_.Increment();
    return Status::OK();
  }
  Forward(agent_msg, msg.src);
  return ExecuteIncoming(agent_msg);
}

}  // namespace bestpeer::agent
