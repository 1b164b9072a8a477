#include "core/node_cache_probe.h"

#include <utility>
#include <vector>

#include "storm/query_expr.h"

namespace bestpeer::core {

namespace {

cache::ResultCacheOptions CacheOptions(net::Transport& transport,
                                       metrics::Registry* metrics) {
  cache::ResultCacheOptions rc;
  rc.metrics = metrics;
  rc.flight = transport.flight();
  rc.node = transport.local();
  rc.now = [&transport]() { return transport.clock().now(); };
  return rc;
}

}  // namespace

CacheProbe::CacheProbe(NodeIo& io, metrics::Registry* metrics,
                       bool count_gossip)
    : io_(io), cache_(CacheOptions(io.transport(), metrics)) {
  if (metrics != nullptr) {
    remote_hits_.set_total(metrics->GetCounter("core.cache_remote_hits"));
    notmod_orphans_.set_total(metrics->GetCounter("core.cache_notmod_orphans"));
    stale_probes_.set_total(metrics->GetCounter("core.cache_stale_probes"));
    index_epoch_g_ = metrics->GetGauge("core.index_epoch");
    if (count_gossip) {
      gossip_invalidations_.set_total(
          metrics->GetCounter("core.gossip_invalidations"));
    }
  }
}

void CacheProbe::Arm(uint64_t query_id, const std::string& keyword,
                     SearchAgent& agent) {
  auto norm = storm::QueryExpr::NormalizeQuery(keyword);
  const std::string key = norm.ok() ? std::move(norm).value() : keyword;
  cache_.RecordAccess(key);
  std::vector<SearchAgent::KnownEpoch> known;  // Ascending, as the map.
  std::map<NodeId, cache::CachedSlice> snapshot;
  if (const auto* slices = cache_.SlicesFor(key)) {
    for (const auto& [source, slice] : *slices) {
      known.push_back({static_cast<uint32_t>(source), slice.epoch});
      snapshot.emplace(static_cast<NodeId>(source), slice);
    }
  }
  agent.EnableCacheProbe(std::move(known));
  snapshots_[query_id] = std::move(snapshot);
}

const cache::CachedSlice* CacheProbe::Snapshot(uint64_t query_id,
                                               NodeId responder) const {
  auto snap_it = snapshots_.find(query_id);
  if (snap_it == snapshots_.end()) return nullptr;
  auto s = snap_it->second.find(responder);
  return s == snap_it->second.end() ? nullptr : &s->second;
}

const cache::CachedSlice* CacheProbe::NotModified(
    NodeId responder, const SearchResultMessage& result) {
  const cache::CachedSlice* slice = Snapshot(result.query_id, responder);
  if (slice == nullptr || slice->epoch != result.cache_epoch) {
    notmod_orphans_.Increment();
    return nullptr;
  }
  remote_hits_.Increment();
  io_.transport().RecordFlight({.type = obs::EventType::kCacheHit,
                                .peer = responder,
                                .flow = result.query_id,
                                .a = slice->ids.size(),
                                .b = result.cache_epoch});
  return slice;
}

void CacheProbe::OnFullReply(NodeId responder,
                             const SearchResultMessage& result,
                             const std::string& keyword) {
  // A stale probe wasted its conditional round trip. Gossiped epoch bumps
  // eliminate these (the slice is invalidated before the query launches,
  // so no probe is armed for it); counting is observational only.
  const cache::CachedSlice* probed = Snapshot(result.query_id, responder);
  if (probed != nullptr && probed->epoch != result.cache_epoch) {
    stale_probes_.Increment();
  }
  auto norm = storm::QueryExpr::NormalizeQuery(keyword);
  if (!norm.ok()) return;
  cache::CachedSlice slice;
  slice.source = responder;
  slice.epoch = result.cache_epoch;
  slice.hops = result.hops;
  slice.ids.reserve(result.items.size());
  for (const auto& item : result.items) slice.ids.push_back(item.id);
  cache_.InsertSlice(norm.value(), std::move(slice));
}

void CacheProbe::OnGossipApply(const gossip::GossipItem& item) {
  if (item.kind != gossip::ItemKind::kIndexEpoch ||
      item.origin == io_.transport().local()) {
    return;
  }
  gossip_invalidations_.Add(cache_.InvalidateSource(item.origin, item.payload));
}

}  // namespace bestpeer::core
