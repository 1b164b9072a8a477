#include "core/node_shipping.h"

#include <utility>

#include "core/search_agent.h"
#include "net/cost_model.h"
#include "storm/query_expr.h"

namespace bestpeer::core {

ObjectShipping::ObjectShipping(NodeIo& io,
                               const std::unique_ptr<storm::Storm>& storage,
                               const PeerList& peers, SessionTable& sessions,
                               agent::AgentRuntime& runtime,
                               const agent::CodeCache& code_cache,
                               metrics::Registry* metrics)
    : io_(io),
      storage_(storage),
      peers_(peers),
      sessions_(sessions),
      runtime_(runtime),
      code_cache_(code_cache) {
  if (metrics != nullptr) {
    fetches_issued_c_ = metrics->GetCounter("core.fetches_issued");
  }
  io_.Handle(kFetchReqType, "fetch.request", this,
             &ObjectShipping::OnFetchRequest);
  io_.Handle(kFetchRespType, "fetch.response", this,
             &ObjectShipping::OnFetchResponse);
  io_.Handle(kDataShipReqType, "dataship.request", this,
             &ObjectShipping::OnDataShipRequest);
  io_.Handle(kDataShipRespType, "dataship.response", this,
             &ObjectShipping::OnDataShipResponse);
}

void ObjectShipping::FetchObjects(NodeId responder, uint64_t query_id,
                                  const std::vector<storm::ObjectId>& ids) {
  fetches_issued_c_->Increment();
  io_.Send(responder, kFetchReqType,
           FetchRequestMessage{.query_id = query_id, .ids = ids}, query_id);
}

Result<uint64_t> ObjectShipping::IssueDirectSearch(const std::string& keyword,
                                                   ShippingMode mode) {
  const uint64_t query_id = sessions_.NextId();
  sessions_.Open(query_id, keyword, AnswerMode::kIndicate);
  sessions_.ArmDeadline(query_id);

  std::vector<NodeId> code_targets;
  std::vector<NodeId> data_targets;
  for (NodeId peer : peers_.Nodes()) {
    ShippingStrategy strategy = ShippingStrategy::kCodeShipping;
    if (mode == ShippingMode::kAlwaysData) {
      strategy = ShippingStrategy::kDataShipping;
    } else if (mode == ShippingMode::kAdaptive) {
      ShippingCostInputs inputs;
      inputs.remote_objects = StoreSizeHint(peer);
      inputs.class_cached = code_cache_.Has(peer, kSearchAgentClass);
      strategy = ChooseShippingStrategy(inputs, io_.transport().link());
    }
    (strategy == ShippingStrategy::kDataShipping ? data_targets
                                                 : code_targets)
        .push_back(peer);
  }

  if (!code_targets.empty()) {
    SearchAgent agent(query_id, keyword, AnswerMode::kIndicate);
    BP_RETURN_IF_ERROR(
        runtime_.Launch(query_id, agent, /*ttl=*/1, code_targets));
  }
  for (NodeId peer : data_targets) {
    io_.Send(peer, kDataShipReqType, DataShipRequest{.query_id = query_id},
             query_id);
  }
  return query_id;
}

size_t ObjectShipping::StoreSizeHint(NodeId node) const {
  auto it = store_size_hints_.find(node);
  return it == store_size_hints_.end() ? 0 : it->second;
}

void ObjectShipping::Serve(NodeId requester, uint32_t type, const char* span,
                           uint64_t query_id,
                           const std::vector<storm::ObjectId>& ids) {
  auto response = std::make_shared<FetchResponseMessage>();
  response->query_id = query_id;
  for (storm::ObjectId id : ids) {
    auto item = ReadShared(*storage_, id);
    // It is possible that the target node "may have removed the desired
    // content or updated it during the period of delay" (paper §2);
    // missing objects are simply skipped.
    if (!item.ok()) continue;
    response->items.push_back(std::move(item).value());
  }
  io_.transport().RunCpu(
      net::kFetchPerObjectCost * static_cast<SimTime>(ids.size()),
      [this, requester, type, response]() {
        io_.Send(requester, type, *response, response->query_id);
      },
      span, query_id);
}

void ObjectShipping::OnFetchRequest(NodeId src, FetchRequestMessage& req) {
  if (storage_ == nullptr) return;
  Serve(src, kFetchRespType, "fetch.serve", req.query_id, req.ids);
}

void ObjectShipping::OnDataShipRequest(NodeId src, DataShipRequest& req) {
  if (storage_ == nullptr) return;
  Serve(src, kDataShipRespType, "dataship.serve", req.query_id,
        storage_->ListIds());
}

void ObjectShipping::OnFetchResponse(NodeId src, FetchResponseMessage& resp) {
  QuerySession* session = sessions_.Live(resp.query_id);
  if (session == nullptr) return;
  session->RecordFetch({.time = io_.transport().clock().now(),
                        .node = src,
                        .hops = 0,
                        .answers = resp.items.size()});
}

void ObjectShipping::OnDataShipResponse(NodeId src, DataShipResponse& resp) {
  QuerySession* session = sessions_.Live(resp.query_id);
  if (session == nullptr) return;
  store_size_hints_[src] = resp.items.size();

  // Scan the shipped store locally — this node paid for the data, now it
  // spends its own cycles on the filtering, with the same query language
  // the search agent evaluates (an unparsable query matches nothing).
  size_t matches = 0;
  auto expr = storm::QueryExpr::Parse(session->keyword());
  for (const auto& item : resp.items) {
    if (expr.ok() && expr->Matches(ToString(item.content))) ++matches;
  }
  const uint64_t query_id = resp.query_id;
  io_.transport().RunCpu(
      static_cast<SimTime>(resp.items.size()) * net::kPerObjectMatchCost,
      [this, query_id, src, matches]() {
        QuerySession* s = sessions_.Live(query_id);
        if (s == nullptr) return;
        s->RecordResult({.time = io_.transport().clock().now(),
                         .node = src,
                         .hops = 1,
                         .answers = matches});
      },
      "dataship.scan", query_id);
}

}  // namespace bestpeer::core
