#include "core/messages.h"

#include "storm/storm.h"

namespace bestpeer::core {

Result<ResultItem> ReadShared(storm::Storm& store, storm::ObjectId id) {
  BP_ASSIGN_OR_RETURN(Bytes content, store.Get(id));
  return ResultItem{id, "obj-" + std::to_string(id), std::move(content)};
}

}  // namespace bestpeer::core
