#include "core/compute.h"

#include "net/cost_model.h"
#include "storm/storm.h"

namespace bestpeer::core {

Status FilterRegistry::Register(std::string_view name, FilterFn filter) {
  if (filters_.find(name) != filters_.end()) {
    return Status::AlreadyExists("filter " + std::string(name));
  }
  filters_.emplace(std::string(name), std::move(filter));
  return Status::OK();
}

Result<FilterFn> FilterRegistry::Get(std::string_view name) const {
  auto it = filters_.find(name);
  if (it == filters_.end()) {
    return Status::NotFound("filter " + std::string(name));
  }
  return it->second;
}

bool FilterRegistry::Contains(std::string_view name) const {
  return filters_.find(name) != filters_.end();
}

Status ComputeAgent::Execute(agent::AgentContext& ctx) {
  storm::Storm* storage = ctx.host()->storage();
  if (storage == nullptr) return Status::OK();
  auto* compute_host = dynamic_cast<ComputeHost*>(ctx.host());
  if (compute_host == nullptr) return Status::OK();

  auto filter = compute_host->filters().Get(filter_name_);
  if (!filter.ok()) {
    // The provider does not know this algorithm; in the full system the
    // code would ship with the agent. Here unknown filters are a no-op.
    return Status::OK();
  }

  SearchResultMessage result;
  result.query_id = query_id_;
  result.hops = ctx.hops();
  result.mode = 1;

  size_t scanned = 0;
  Status status = Status::OK();
  std::vector<storm::ObjectId> ids = storage->ListIds();
  for (storm::ObjectId id : ids) {
    ++scanned;
    auto content = storage->Get(id);
    if (!content.ok()) {
      status = content.status();
      break;
    }
    auto filtered = filter.value()(content.value(), params_);
    if (!filtered.ok()) continue;  // Filter rejected the object.
    if (filtered->empty()) continue;
    ResultItem item;
    item.id = id;
    item.name = "obj-" + std::to_string(id);
    item.content = std::move(filtered).value();
    result.items.push_back(std::move(item));
  }
  ctx.ChargeCpu(static_cast<SimTime>(scanned) * net::kComputePerObjectCost);
  if (!status.ok()) return status;
  if (!result.items.empty()) {
    ctx.SendMessage(ctx.origin_node(), kSearchResultType, result.Encode());
  }
  return Status::OK();
}

}  // namespace bestpeer::core
