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

Status AgentRuntime::ExecuteIncoming(const AgentMessage& msg) {
  BP_ASSIGN_OR_RETURN(auto agent, registry_->Create(msg.class_name));
  BinaryReader reader(msg.state);
  BP_RETURN_IF_ERROR(agent->LoadState(reader));

  SimTime setup = net::kAgentReconstructCost;
  if (!code_cache_->Has(node_, msg.class_name)) {
    setup += net::kAgentClassLoadCost;
    code_cache_->Load(node_, msg.class_name);
    class_loads_c_->Increment();
  }
  reconstruct_us_c_->Add(static_cast<uint64_t>(setup));

  AgentContext ctx(host_, node_, msg.origin, msg.hops, msg.ttl);
  BP_RETURN_IF_ERROR(agent->Execute(ctx));
  agents_executed_.Increment();
  hops_at_execute_->Observe(static_cast<double>(msg.hops));

  SimTime total = setup + ctx.cpu_cost();
  // The setup/scan split lets the critical-path analyzer separate agent
  // overhead (reconstruct + class load) from useful store-scan time.
  std::vector<std::pair<std::string, uint64_t>> span_args;
  if (transport_->trace() != nullptr) {
    span_args.emplace_back("setup", static_cast<uint64_t>(setup));
    span_args.emplace_back("scan", static_cast<uint64_t>(ctx.cpu_cost()));
  }
  auto sends = std::move(ctx.mutable_sends());
  auto codec = options_.codec;
  net::Transport* transport = transport_;
  FlowId flow = msg.agent_id;
  transport_->RunCpu(
      total,
      [transport, codec, flow, sends = std::move(sends)]() {
        for (const auto& send : sends) {
          auto compressed = codec->Compress(send.payload);
          if (!compressed.ok()) continue;
          transport->Send(send.dst, send.type,
                          std::move(compressed).value(), 0, flow);
        }
      },
      "agent.execute", flow, std::move(span_args));
  return Status::OK();
}

Status AgentRuntime::Launch(uint64_t agent_id, Agent& agent, uint16_t ttl,
                            const std::vector<NodeId>& targets) {
  if (!registry_->Contains(agent.class_name())) {
    return Status::FailedPrecondition("agent class not registered: " +
                                      std::string(agent.class_name()));
  }
  code_cache_->Load(node_, agent.class_name());
  seen_[agent_id] = transport_->clock().now();
  if (ttl == 0) return Status::OK();

  AgentMessage msg;
  msg.agent_id = agent_id;
  msg.class_name = std::string(agent.class_name());
  msg.origin = node_;
  msg.ttl = static_cast<uint16_t>(ttl - 1);
  msg.hops = 1;
  BinaryWriter writer;
  agent.SaveState(writer);
  msg.state = writer.Take();

  for (NodeId target : targets) {
    if (target == node_) continue;
    BP_RETURN_IF_ERROR(SendAgentTo(target, msg));
  }
  return Status::OK();
}

void AgentRuntime::PruneSeen() {
  if (options_.seen_expiry <= 0) return;
  const SimTime cutoff = transport_->clock().now() - options_.seen_expiry;
  for (auto it = seen_.begin(); it != seen_.end();) {
    if (it->second < cutoff) {
      // A lost agent (dropped in flight, or died with a crashed host)
      // never comes back to deregister itself — age its record out so
      // the table stays bounded under churn and faults.
      it = seen_.erase(it);
      seen_expired_.Increment();
    } else {
      ++it;
    }
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
  auto [it, inserted] =
      seen_.emplace(agent_msg.agent_id, transport_->clock().now());
  if (!inserted) {
    it->second = transport_->clock().now();  // Refresh: still circulating.
    duplicates_dropped_.Increment();
    return Status::OK();
  }
  Forward(agent_msg, msg.src);
  return ExecuteIncoming(agent_msg);
}

}  // namespace bestpeer::agent
