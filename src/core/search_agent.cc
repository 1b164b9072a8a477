#include "core/search_agent.h"

#include <algorithm>

#include "cache/result_cache.h"
#include "storm/query_expr.h"
#include "storm/storm.h"

namespace bestpeer::core {

Status SearchAgent::Check() const {
  for (size_t i = 1; i < known_epochs_.size(); ++i) {
    if (known_epochs_[i - 1].node >= known_epochs_[i].node) {
      return Status::Corruption("known epochs out of node order");
    }
  }
  return Status::OK();
}

Result<std::vector<storm::ObjectId>> SearchAgent::FindMatches(
    agent::AgentContext& ctx, storm::Storm* storage) {
  if (index_search_enabled()) {
    size_t touched = 0;
    auto indexed = storage->IndexSearch(keyword_, &touched);
    if (indexed.ok()) {
      ctx.ChargeCpu(static_cast<SimTime>(touched) * net::kPerPostingCost);
      return std::move(indexed).value();
    }
    // No index at this store (mixed fleet): fall through to the scan.
  }
  // "The agent makes a comparison for each object stored in the
  // Shared-StorM database with its query."
  BP_ASSIGN_OR_RETURN(storm::Storm::ScanResult scan,
                      storage->ScanSearch(keyword_));
  ctx.ChargeCpu(static_cast<SimTime>(scan.objects_scanned) *
                net::kPerObjectMatchCost);
  return std::move(scan.matches);
}

Result<std::vector<storm::ObjectId>> SearchAgent::ProbeMatches(
    agent::AgentContext& ctx, storm::Storm* storage, uint64_t index_epoch,
    const std::string& key) {
  cache::ResultCache* rc = ctx.host()->result_cache();
  if (rc == nullptr) return FindMatches(ctx, storage);
  rc->RecordAccess(key);
  if (const cache::CachedSlice* slice =
          rc->ProbeSlice(key, ctx.current_node(), index_epoch)) {
    ctx.ChargeCpu(net::kCacheProbeCost);
    return slice->ids;
  }
  BP_ASSIGN_OR_RETURN(std::vector<storm::ObjectId> matches,
                      FindMatches(ctx, storage));
  // Cache even empty answer sets: knowing "nothing here at this epoch"
  // saves the next full scan too.
  cache::CachedSlice slice;
  slice.source = ctx.current_node();
  slice.epoch = index_epoch;
  slice.hops = ctx.hops();
  slice.ids = matches;
  rc->InsertSlice(key, std::move(slice));
  return matches;
}

Status SearchAgent::Execute(agent::AgentContext& ctx) {
  storm::Storm* storage = ctx.host()->storage();
  if (storage == nullptr) return Status::OK();  // Nothing shared here.

  // An armed probe stamps its reply with the store's IndexEpoch: the
  // mutation epoch shifted by one, so it is never zero on the wire.
  const bool probe = cache_probe_enabled();
  const uint64_t index_epoch = probe ? storage->mutation_epoch() + 1 : 0;
  std::string key;
  if (probe) {
    auto norm = storm::QueryExpr::NormalizeQuery(keyword_);
    key = norm.ok() ? std::move(norm).value() : keyword_;
  }
  BP_ASSIGN_OR_RETURN(std::vector<storm::ObjectId> matches,
                      probe ? ProbeMatches(ctx, storage, index_epoch, key)
                            : FindMatches(ctx, storage));
  if (matches.empty()) return Status::OK();

  SearchResultMessage result;
  result.query_id = query_id_;
  result.hops = ctx.hops();
  result.mode = static_cast<uint8_t>(mode_);
  result.responder_object_count =
      static_cast<uint32_t>(storage->object_count());
  result.cache_epoch = index_epoch;
  auto known = std::ranges::find(known_epochs_, ctx.current_node(),
                                 &KnownEpoch::node);
  if (known != known_epochs_.end() && known->epoch == index_epoch) {
    // Conditional GET, answered "not modified": the base's slice for this
    // responder is provably current (the epoch it knows is the epoch the
    // store is at *right now*), so a header-only reply suffices.
    result.cache_flags = SearchResultMessage::kCacheNotModified;
  } else {
    result.items.reserve(matches.size());
    for (storm::ObjectId id : matches) {
      if (mode_ == AnswerMode::kDirect) {
        // A match may race a delete before this read (a cached slice, or
        // over TCP a worker's scan beside a mutation on the reactor); the
        // item is skipped, as the fetch path does.
        auto item = ReadShared(*storage, id);
        if (item.ok()) result.items.push_back(std::move(item).value());
      } else {
        // Mode 2: ship a fixed-size descriptor instead of the content.
        ResultItem item{id, "obj-" + std::to_string(id), {}};
        item.name.resize(net::kAnswerDescriptorBytes, ' ');
        result.items.push_back(std::move(item));
      }
    }
  }
  // Results go directly to the base node, never along the query path.
  ctx.SendMessage(ctx.origin_node(), kSearchResultType, result.Encode());
  if (probe) ctx.host()->OnAnswerServed(key, matches);
  return Status::OK();
}

}  // namespace bestpeer::core
