#ifndef BESTPEER_CORE_ACTIVE_OBJECT_H_
#define BESTPEER_CORE_ACTIVE_OBJECT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::core {

/// Access rights a requester can hold on shared content (paper §3.2.2:
/// "different users may have different access rights to the content").
enum class AccessLevel : uint8_t {
  kPublic = 0,
  kMember = 1,
  kOwner = 2,
};

/// An "active node": the black-box executable an active element names. It
/// receives the element's raw data and the requester's access level and
/// returns the content that requester may see.
using ActiveNodeFn =
    std::function<Result<Bytes>(const Bytes& data, AccessLevel level)>;

/// Name -> active node. Owned by each sharing node; the object owner is
/// responsible for the correctness of the filtering (paper §3.2.2).
class ActiveNodeRegistry {
 public:
  Status Register(std::string_view name, ActiveNodeFn fn);
  Result<ActiveNodeFn> Get(std::string_view name) const;
  bool Contains(std::string_view name) const;
  size_t size() const { return nodes_.size(); }

 private:
  std::map<std::string, ActiveNodeFn, std::less<>> nodes_;
};

/// An active object: an ordered list of elements, each either a plain
/// data element or an active element naming an active node that generates
/// its content per-requester. Rendering concatenates element outputs.
class ActiveObject {
 public:
  struct Element {
    bool active = false;
    /// Data element: the literal content. Active element: the input fed
    /// to the active node.
    Bytes data;
    /// Active element only: the registered active-node name.
    std::string active_node;

    static Status Wire(auto& m, auto& io) {
      return io(m.active, m.active_node, m.data);
    }
  };

  ActiveObject() = default;

  /// Appends a plain data element.
  void AddDataElement(Bytes data);

  /// Appends an active element processed by `active_node`.
  void AddActiveElement(std::string active_node, Bytes data);

  /// Renders the object for a requester at `level`, resolving active
  /// nodes through `registry`.
  Result<Bytes> Render(AccessLevel level,
                       const ActiveNodeRegistry& registry) const;

  /// Serializes the object (element structure + data) so active objects
  /// can be persisted in StorM or shipped between owners. Active-node
  /// *names* travel; the executables themselves stay registered code.
  static Status Wire(auto& m, auto& io) { return io(m.elements_); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ActiveObject> Decode(const Bytes& data) {
    return wire::Decode<ActiveObject>(data);
  }

  const std::vector<Element>& elements() const { return elements_; }
  size_t element_count() const { return elements_.size(); }

 private:
  std::vector<Element> elements_;
};

/// Standard active node: redacts text between "[SECRET]" and "[/SECRET]"
/// markers for requesters below kOwner. Registered as
/// "redact-secrets" by BestPeerNode::InitDefaultActiveNodes.
Result<Bytes> RedactSecretsActiveNode(const Bytes& data, AccessLevel level);

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_ACTIVE_OBJECT_H_
