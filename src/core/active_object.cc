#include "core/active_object.h"

#include <utility>

namespace bestpeer::core {

Status ActiveNodeRegistry::Register(std::string_view name, ActiveNodeFn fn) {
  if (nodes_.find(name) != nodes_.end()) {
    return Status::AlreadyExists("active node " + std::string(name));
  }
  nodes_.emplace(std::string(name), std::move(fn));
  return Status::OK();
}

Result<ActiveNodeFn> ActiveNodeRegistry::Get(std::string_view name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return Status::NotFound("active node " + std::string(name));
  }
  return it->second;
}

bool ActiveNodeRegistry::Contains(std::string_view name) const {
  return nodes_.find(name) != nodes_.end();
}

void ActiveObject::AddDataElement(Bytes data) {
  Element element;
  element.active = false;
  element.data = std::move(data);
  elements_.push_back(std::move(element));
}

void ActiveObject::AddActiveElement(std::string active_node, Bytes data) {
  Element element;
  element.active = true;
  element.active_node = std::move(active_node);
  element.data = std::move(data);
  elements_.push_back(std::move(element));
}

Result<Bytes> ActiveObject::Render(AccessLevel level,
                                   const ActiveNodeRegistry& registry) const {
  Bytes out;
  for (const Element& element : elements_) {
    if (!element.active) {
      out.insert(out.end(), element.data.begin(), element.data.end());
      continue;
    }
    BP_ASSIGN_OR_RETURN(ActiveNodeFn fn, registry.Get(element.active_node));
    BP_ASSIGN_OR_RETURN(Bytes rendered, fn(element.data, level));
    out.insert(out.end(), rendered.begin(), rendered.end());
  }
  return out;
}

Result<Bytes> RedactSecretsActiveNode(const Bytes& data, AccessLevel level) {
  if (level >= AccessLevel::kOwner) return data;
  static constexpr std::string_view kOpen = "[SECRET]";
  static constexpr std::string_view kClose = "[/SECRET]";
  std::string text(data.begin(), data.end());
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t open = text.find(kOpen, pos);
    if (open == std::string::npos) {
      out.append(text, pos, std::string::npos);
      break;
    }
    out.append(text, pos, open - pos);
    size_t close = text.find(kClose, open + kOpen.size());
    if (close == std::string::npos) {
      // Unterminated secret: redact to end of text.
      break;
    }
    out += "[REDACTED]";
    pos = close + kClose.size();
  }
  return ToBytes(out);
}

}  // namespace bestpeer::core
