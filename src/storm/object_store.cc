#include "storm/object_store.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace bestpeer::storm {

namespace {

struct RecordHeader {
  ObjectId id;
  uint16_t chunk;
  uint16_t nchunks;
};

RecordHeader ParseHeader(const uint8_t* data) {
  RecordHeader h;
  std::memcpy(&h.id, data, 8);
  std::memcpy(&h.chunk, data + 8, 2);
  std::memcpy(&h.nchunks, data + 10, 2);
  return h;
}

/// The object bytes of a chunk record (everything after its header).
std::string_view RecordData(std::pair<const uint8_t*, uint16_t> rec) {
  return std::string_view(
      reinterpret_cast<const char*>(rec.first) + ObjectStore::kRecordHeaderSize,
      rec.second - ObjectStore::kRecordHeaderSize);
}

Bytes MakeRecord(ObjectId id, uint16_t chunk, uint16_t nchunks,
                 const uint8_t* data, size_t len) {
  Bytes rec(ObjectStore::kRecordHeaderSize + len);
  std::memcpy(rec.data(), &id, 8);
  std::memcpy(rec.data() + 8, &chunk, 2);
  std::memcpy(rec.data() + 10, &nchunks, 2);
  // An empty object may come with a null `data`, and memcpy from null
  // is undefined even for zero bytes.
  if (len > 0) {
    std::memcpy(rec.data() + ObjectStore::kRecordHeaderSize, data, len);
  }
  return rec;
}

}  // namespace

Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(BufferPool* pool) {
  auto store = std::unique_ptr<ObjectStore>(new ObjectStore(pool));
  BP_RETURN_IF_ERROR(store->ScanExisting());
  return store;
}

Status ObjectStore::ScanExisting() {
  const PageId count = pool_->pager()->page_count();
  for (PageId pid = 0; pid < count; ++pid) {
    BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(pid));
    Page* page = guard.page();
    if (!page->IsFormatted()) continue;
    for (uint16_t slot = 0; slot < page->slot_count(); ++slot) {
      if (!page->SlotLive(slot)) continue;
      auto rec = page->Read(slot);
      if (!rec.ok()) return rec.status();
      if (rec->second < kRecordHeaderSize) {
        return Status::Corruption("undersized record on page " +
                                  std::to_string(pid));
      }
      RecordHeader h = ParseHeader(rec->first);
      auto& locs = directory_[h.id];
      if (locs.size() < static_cast<size_t>(h.nchunks)) {
        locs.resize(h.nchunks, Loc{0, Page::kTombstone});
      }
      if (h.chunk >= locs.size()) {
        return Status::Corruption("chunk index out of range for object " +
                                  std::to_string(h.id));
      }
      locs[h.chunk] = Loc{pid, slot};
    }
    SetFreeSpace(pid, page->FreeSpace() + page->FragmentedSpace());
  }
  // Validate that every object has all chunks present.
  for (const auto& [id, locs] : directory_) {
    for (const Loc& loc : locs) {
      if (loc.slot == Page::kTombstone) {
        return Status::Corruption("missing chunk for object " +
                                  std::to_string(id));
      }
    }
  }
  return Status::OK();
}

void ObjectStore::SetFreeSpace(PageId pid, size_t bytes) {
  if (pid >= free_space_.size()) free_space_.resize(pid + 1, 0);
  free_space_[pid] = bytes;
}

Result<ObjectStore::Loc> ObjectStore::InsertRecord(const Bytes& record) {
  // First fit over pages believed to have room.
  for (PageId pid = 0; pid < free_space_.size(); ++pid) {
    size_t& avail = free_space_[pid];
    if (avail < record.size() + Page::kSlotEntrySize) continue;
    BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(pid));
    Page* page = guard.page();
    if (page->FreeSpace() < record.size() &&
        page->FreeSpace() + page->FragmentedSpace() >= record.size()) {
      page->Compact();
      guard.MarkDirty();
    }
    auto slot = page->Insert(record.data(),
                             static_cast<uint16_t>(record.size()));
    if (slot.ok()) {
      guard.MarkDirty();
      avail = page->FreeSpace();
      return Loc{pid, slot.value()};
    }
    // Stale estimate; refresh and keep looking.
    avail = page->FreeSpace();
  }
  // No page fits: allocate a new one.
  BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->New());
  Page* page = guard.page();
  BP_ASSIGN_OR_RETURN(
      uint16_t slot,
      page->Insert(record.data(), static_cast<uint16_t>(record.size())));
  guard.MarkDirty();
  SetFreeSpace(guard.id(), page->FreeSpace());
  return Loc{guard.id(), slot};
}

Status ObjectStore::Put(ObjectId id, const Bytes& data) {
  if (directory_.count(id) != 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  const size_t nchunks =
      data.empty() ? 1 : (data.size() + kChunkDataSize - 1) / kChunkDataSize;
  if (nchunks > 0xFFFF) {
    return Status::InvalidArgument("object too large");
  }
  std::vector<Loc> locs;
  locs.reserve(nchunks);
  for (size_t c = 0; c < nchunks; ++c) {
    size_t off = c * kChunkDataSize;
    size_t len = std::min(kChunkDataSize, data.size() - off);
    Bytes record =
        MakeRecord(id, static_cast<uint16_t>(c),
                   static_cast<uint16_t>(nchunks),
                   data.empty() ? nullptr : data.data() + off, len);
    auto loc = InsertRecord(record);
    if (!loc.ok()) {
      // Roll back chunks already written.
      for (const Loc& done : locs) {
        auto guard = pool_->Fetch(done.page);
        if (guard.ok()) {
          guard->page()->Delete(done.slot).ok();
          guard->MarkDirty();
        }
      }
      return loc.status();
    }
    locs.push_back(loc.value());
  }
  directory_[id] = std::move(locs);
  return Status::OK();
}

Result<Bytes> ObjectStore::Get(ObjectId id) {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  Bytes out;
  for (const Loc& loc : it->second) {
    BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(loc.page));
    auto rec = guard.page()->Read(loc.slot);
    if (!rec.ok()) return rec.status();
    const std::string_view data = RecordData(rec.value());
    out.insert(out.end(), data.begin(), data.end());
  }
  return out;
}

Status ObjectStore::Delete(ObjectId id) {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  for (const Loc& loc : it->second) {
    BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(loc.page));
    BP_RETURN_IF_ERROR(guard.page()->Delete(loc.slot));
    guard.MarkDirty();
    SetFreeSpace(loc.page,
                 guard.page()->FreeSpace() + guard.page()->FragmentedSpace());
  }
  directory_.erase(it);
  return Status::OK();
}

bool ObjectStore::Contains(ObjectId id) const {
  return directory_.count(id) != 0;
}

std::vector<ObjectId> ObjectStore::ListIds() const {
  std::vector<ObjectId> ids;
  ids.reserve(directory_.size());
  for (const auto& [id, locs] : directory_) ids.push_back(id);
  return ids;
}

Status ObjectStore::ForEach(
    const std::function<Status(ObjectId, std::string_view)>& fn) {
  std::string joined;  // Multi-chunk objects, reused across the scan.
  for (const auto& [id, locs] : directory_) {
    if (locs.size() == 1) {
      BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(locs[0].page));
      auto rec = guard.page()->Read(locs[0].slot);
      if (!rec.ok()) return rec.status();
      BP_RETURN_IF_ERROR(fn(id, RecordData(rec.value())));
      continue;
    }
    joined.clear();
    for (const Loc& loc : locs) {
      BP_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(loc.page));
      auto rec = guard.page()->Read(loc.slot);
      if (!rec.ok()) return rec.status();
      joined += RecordData(rec.value());
    }
    BP_RETURN_IF_ERROR(fn(id, joined));
  }
  return Status::OK();
}

}  // namespace bestpeer::storm
