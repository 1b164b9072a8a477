#ifndef BESTPEER_CORE_COMPUTE_H_
#define BESTPEER_CORE_COMPUTE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "agent/agent.h"
#include "core/messages.h"
#include "net/cost_model.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::core {

/// Registered class name of the compute agent.
inline constexpr std::string_view kComputeAgentClass = "ComputeAgent";

/// A requester-supplied algorithm that runs over a provider's objects
/// (computational-power sharing, paper §3.2.3: "the requester performs
/// the filtering task at the provider's end").
///
/// A filter receives one object's content plus the requester's parameter
/// blob and returns the (possibly reduced) bytes to ship back — or an
/// empty result to skip the object.
using FilterFn =
    std::function<Result<Bytes>(const Bytes& object, const Bytes& params)>;

/// Name -> filter function. The registry is the safe C++ analogue of
/// shipping executable filter code: the *identity* of the algorithm plus
/// its parameters travel with the agent, and its registered code size is
/// charged to the wire by the agent framework.
class FilterRegistry {
 public:
  Status Register(std::string_view name, FilterFn filter);
  Result<FilterFn> Get(std::string_view name) const;
  bool Contains(std::string_view name) const;
  size_t size() const { return filters_.size(); }

 private:
  std::map<std::string, FilterFn, std::less<>> filters_;
};

/// Agent carrying a filter id + parameters; at each node it runs the
/// filter over every shared object and sends the non-empty outputs back
/// to the base node as a mode-1 result ("only the necessary data is
/// transmitted to the requester").
class ComputeAgent : public agent::Agent {
 public:
  ComputeAgent() = default;
  ComputeAgent(uint64_t query_id, std::string filter_name, Bytes params)
      : query_id_(query_id),
        filter_name_(std::move(filter_name)),
        params_(std::move(params)) {}

  std::string_view class_name() const override { return kComputeAgentClass; }
  Bytes SaveState() const override { return wire::Encode(*this); }
  Status LoadState(const Bytes& state) override {
    return wire::DecodeInto(state, *this);
  }
  Status Execute(agent::AgentContext& ctx) override;

  uint64_t query_id() const { return query_id_; }

  /// Query id, filter name, parameters, then the sender's per-object
  /// cost: written from net/cost_model.h and read into a discard, because
  /// the visited node charges its own net::kComputePerObjectCost.
  static Status Wire(auto& m, auto& io) {
    int64_t sender_cost = net::kComputePerObjectCost;
    return io(m.query_id_, m.filter_name_, m.params_, sender_cost);
  }

 private:
  uint64_t query_id_ = 0;
  std::string filter_name_;
  Bytes params_;
};

/// Host capability the compute agent needs beyond storage. BestPeerNode
/// implements it; the agent discovers it by dynamic_cast from AgentHost.
class ComputeHost {
 public:
  virtual ~ComputeHost() = default;
  virtual const FilterRegistry& filters() const = 0;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_COMPUTE_H_
