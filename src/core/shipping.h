#ifndef BESTPEER_CORE_SHIPPING_H_
#define BESTPEER_CORE_SHIPPING_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/cost_model.h"
#include "net/transport.h"
#include "util/sim_time.h"

namespace bestpeer::core {

/// How a search interrogates one peer (the paper's §6 future work: "make
/// a node more intelligent by allowing it to determine at runtime which
/// strategy to adopt — code-shipping or data-shipping").
enum class ShippingStrategy : uint8_t {
  /// Send the agent; the peer scans its own store (the default).
  kCodeShipping = 0,
  /// Pull the peer's raw objects and scan them locally.
  kDataShipping = 1,
};

/// Mode of the shipping decision for direct searches.
enum class ShippingMode : uint8_t {
  kAlwaysCode = 0,
  kAlwaysData = 1,
  /// Per-peer cost-based choice using the peer's last known store size.
  kAdaptive = 2,
};

/// Cost model inputs for one peer interrogation.
struct ShippingCostInputs {
  /// Objects in the remote store (0 = unknown; forces code shipping).
  size_t remote_objects = 0;
  /// Average object size in bytes.
  size_t object_size = 1024;
  /// Whether the agent class is already resident at the peer.
  bool class_cached = true;
  /// Serialized agent size (state + envelope) in bytes.
  size_t agent_bytes = 256;
  /// Agent class size in bytes (shipped on a cache miss).
  size_t class_bytes = net::kAgentCodeBytes;
};

/// Estimated wall-clock to interrogate one peer by shipping the agent,
/// priced with the net/cost_model.h constants.
SimTime EstimateCodeShippingCost(const ShippingCostInputs& inputs,
                                 const net::LinkProfile& link);

/// Estimated wall-clock to pull the peer's store and scan it locally.
SimTime EstimateDataShippingCost(const ShippingCostInputs& inputs,
                                 const net::LinkProfile& link);

/// Picks the cheaper strategy; unknown store sizes default to code
/// shipping (never pull an unbounded amount of data blindly).
ShippingStrategy ChooseShippingStrategy(const ShippingCostInputs& inputs,
                                        const net::LinkProfile& link);

/// Human-readable names for logs and bench rows.
std::string_view ShippingStrategyName(ShippingStrategy strategy);
std::string_view ShippingModeName(ShippingMode mode);

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_SHIPPING_H_
