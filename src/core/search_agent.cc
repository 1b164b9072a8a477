#include "core/search_agent.h"

#include "cache/result_cache.h"
#include "net/cost_model.h"
#include "storm/query_expr.h"
#include "storm/storm.h"

namespace bestpeer::core {

void SearchAgent::SaveState(BinaryWriter& writer) const {
  writer.WriteU64(query_id_);
  writer.WriteString(keyword_);
  writer.WriteU8(static_cast<uint8_t>(mode_));
  writer.WriteI64(net::kPerObjectMatchCost);
  writer.WriteVarint(net::kAnswerDescriptorBytes);
  // Trailing optional section: written only when some optional feature
  // is armed, so feature-off agent transfers stay byte-identical. The
  // leading byte is a flags bitmask; a cache-probe-only agent encodes
  // exactly as older builds did (flags == 1).
  const uint8_t flags = (cache_probe_ ? kFlagCacheProbe : 0) |
                        (use_index_ ? kFlagIndexSearch : 0);
  if (flags != 0) {
    writer.WriteU8(flags);
    if (cache_probe_) {
      writer.WriteI64(net::kCacheProbeCost);
      writer.WriteVarint(known_epochs_.size());
      for (const auto& [node, epoch] : known_epochs_) {
        writer.WriteU32(node);
        writer.WriteVarint(epoch);
      }
    }
    if (use_index_) {
      writer.WriteI64(net::kPerPostingCost);
    }
  }
}

Status SearchAgent::LoadState(BinaryReader& reader) {
  BP_ASSIGN_OR_RETURN(query_id_, reader.ReadU64());
  BP_ASSIGN_OR_RETURN(keyword_, reader.ReadString());
  BP_ASSIGN_OR_RETURN(uint8_t mode, reader.ReadU8());
  if (mode != 1 && mode != 2) return Status::Corruption("bad answer mode");
  mode_ = static_cast<AnswerMode>(mode);
  // The sender's per-object cost and descriptor size: read past, never
  // used (this node charges its own cost model).
  BP_RETURN_IF_ERROR(reader.ReadI64().status());
  BP_RETURN_IF_ERROR(reader.ReadVarint().status());
  cache_probe_ = false;
  known_epochs_.clear();
  use_index_ = false;
  if (!reader.AtEnd()) {
    BP_ASSIGN_OR_RETURN(uint8_t flags, reader.ReadU8());
    if (flags == 0 || (flags & ~(kFlagCacheProbe | kFlagIndexSearch)) != 0) {
      return Status::Corruption("bad agent feature flags");
    }
    cache_probe_ = (flags & kFlagCacheProbe) != 0;
    if (cache_probe_) {
      BP_RETURN_IF_ERROR(reader.ReadI64().status());  // Sender's cost.
      BP_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
      for (uint64_t i = 0; i < n; ++i) {
        BP_ASSIGN_OR_RETURN(uint32_t node, reader.ReadU32());
        BP_ASSIGN_OR_RETURN(uint64_t epoch, reader.ReadVarint());
        known_epochs_[node] = epoch;
      }
    }
    use_index_ = (flags & kFlagIndexSearch) != 0;
    if (use_index_) {
      BP_RETURN_IF_ERROR(reader.ReadI64().status());  // Sender's cost.
    }
  }
  return Status::OK();
}

Result<std::vector<storm::ObjectId>> SearchAgent::FindMatches(
    agent::AgentContext& ctx, storm::Storm* storage,
    uint32_t* store_size_hint) {
  if (use_index_) {
    size_t touched = 0;
    auto indexed = storage->IndexSearch(keyword_, &touched);
    if (indexed.ok()) {
      ctx.ChargeCpu(static_cast<SimTime>(touched) * net::kPerPostingCost);
      *store_size_hint = static_cast<uint32_t>(storage->object_count());
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
  *store_size_hint = static_cast<uint32_t>(scan.objects_scanned);
  return std::move(scan.matches);
}

Status SearchAgent::Execute(agent::AgentContext& ctx) {
  storm::Storm* storage = ctx.host()->storage();
  if (storage == nullptr) return Status::OK();  // Nothing shared here.

  if (!cache_probe_) {
    uint32_t store_size_hint = 0;
    BP_ASSIGN_OR_RETURN(std::vector<storm::ObjectId> matches,
                        FindMatches(ctx, storage, &store_size_hint));
    if (matches.empty()) return Status::OK();

    SearchResultMessage result;
    result.query_id = query_id_;
    result.hops = ctx.hops();
    result.mode = static_cast<uint8_t>(mode_);
    result.responder_object_count = store_size_hint;
    result.items.reserve(matches.size());
    for (storm::ObjectId id : matches) {
      ResultItem item;
      item.id = id;
      item.name = "obj-" + std::to_string(id);
      if (mode_ == AnswerMode::kDirect) {
        BP_ASSIGN_OR_RETURN(item.content, storage->Get(id));
      } else {
        // Mode 2: ship a fixed-size descriptor instead of the content.
        item.name.resize(net::kAnswerDescriptorBytes, ' ');
      }
      result.items.push_back(std::move(item));
    }
    // Results go directly to the base node, never along the query path.
    ctx.SendMessage(ctx.origin_node(), kSearchResultType, result.Encode());
    return Status::OK();
  }

  // Cache-probe hop step. The IndexEpoch is the mutation epoch shifted by
  // one so an armed probe always carries a nonzero epoch on the wire.
  const uint64_t index_epoch = storage->mutation_epoch() + 1;
  std::string norm_key = keyword_;
  if (auto norm = storm::QueryExpr::NormalizeQuery(keyword_); norm.ok()) {
    norm_key = std::move(norm).value();
  }

  cache::ResultCache* rc = ctx.host()->result_cache();
  std::vector<uint64_t> matches;
  bool from_cache = false;
  if (rc != nullptr) {
    rc->RecordAccess(norm_key);
    const cache::CachedSlice* slice =
        rc->ProbeSlice(norm_key, ctx.current_node(), index_epoch);
    if (slice != nullptr) {
      matches = slice->ids;
      from_cache = true;
      ctx.ChargeCpu(net::kCacheProbeCost);
    }
  }
  if (!from_cache) {
    uint32_t store_size_hint = 0;
    BP_ASSIGN_OR_RETURN(matches, FindMatches(ctx, storage, &store_size_hint));
    if (rc != nullptr) {
      // Cache even empty answer sets: knowing "nothing here at this
      // epoch" saves the next full scan too.
      cache::CachedSlice slice;
      slice.source = ctx.current_node();
      slice.epoch = index_epoch;
      slice.hops = ctx.hops();
      slice.ids = matches;
      rc->InsertSlice(norm_key, std::move(slice));
    }
  }
  if (matches.empty()) return Status::OK();

  SearchResultMessage result;
  result.query_id = query_id_;
  result.hops = ctx.hops();
  result.mode = static_cast<uint8_t>(mode_);
  result.responder_object_count =
      static_cast<uint32_t>(storage->object_count());
  result.cache_epoch = index_epoch;
  auto known = known_epochs_.find(ctx.current_node());
  if (known != known_epochs_.end() && known->second == index_epoch) {
    // Conditional GET, answered "not modified": the base's slice for this
    // responder is provably current (the epoch it knows is the epoch the
    // store is at *right now*), so a header-only reply suffices.
    result.cache_flags = SearchResultMessage::kCacheNotModified;
  } else {
    result.items.reserve(matches.size());
    for (storm::ObjectId id : matches) {
      ResultItem item;
      item.id = id;
      item.name = "obj-" + std::to_string(id);
      if (mode_ == AnswerMode::kDirect) {
        auto content = storage->Get(id);
        // A cached match may race a concurrent delete between epoch
        // check and read; skipping mirrors the fetch path's tolerance.
        if (!content.ok()) continue;
        item.content = std::move(content).value();
      } else {
        item.name.resize(net::kAnswerDescriptorBytes, ' ');
      }
      result.items.push_back(std::move(item));
    }
  }
  ctx.SendMessage(ctx.origin_node(), kSearchResultType, result.Encode());
  ctx.host()->OnAnswerServed(norm_key, matches);
  return Status::OK();
}

}  // namespace bestpeer::core
