#include "core/shipping.h"

#include <cmath>

namespace bestpeer::core {

namespace {

/// One-hop transfer time of `bytes` over the modelled LAN (uplink +
/// propagation + downlink).
SimTime TransferTime(size_t bytes, const net::LinkProfile& link) {
  double per_nic = static_cast<double>(bytes) / link.bytes_per_us;
  return static_cast<SimTime>(std::llround(2 * per_nic)) + link.latency;
}

}  // namespace

SimTime EstimateCodeShippingCost(const ShippingCostInputs& inputs,
                                 const net::LinkProfile& link) {
  size_t outbound = inputs.agent_bytes + link.frame_overhead +
                    (inputs.class_cached ? 0 : inputs.class_bytes);
  SimTime cost = TransferTime(outbound, link);
  cost += net::kAgentReconstructCost;
  if (!inputs.class_cached) cost += net::kAgentClassLoadCost;
  cost += static_cast<SimTime>(inputs.remote_objects) *
          net::kPerObjectMatchCost;
  // Results come back; assume the small-descriptor case for estimation.
  cost += TransferTime(link.frame_overhead + net::kAnswerDescriptorBytes,
                       link);
  return cost;
}

SimTime EstimateDataShippingCost(const ShippingCostInputs& inputs,
                                 const net::LinkProfile& link) {
  size_t store_bytes = inputs.remote_objects * inputs.object_size;
  SimTime cost = TransferTime(link.frame_overhead + 64, link);  // Request.
  cost += static_cast<SimTime>(inputs.remote_objects) *
          net::kFetchPerObjectCost;  // Remote read-out.
  cost += TransferTime(store_bytes + link.frame_overhead, link);
  cost += static_cast<SimTime>(inputs.remote_objects) *
          net::kPerObjectMatchCost;  // Local scan.
  return cost;
}

ShippingStrategy ChooseShippingStrategy(const ShippingCostInputs& inputs,
                                        const net::LinkProfile& link) {
  if (inputs.remote_objects == 0) return ShippingStrategy::kCodeShipping;
  SimTime code = EstimateCodeShippingCost(inputs, link);
  SimTime data = EstimateDataShippingCost(inputs, link);
  return data < code ? ShippingStrategy::kDataShipping
                     : ShippingStrategy::kCodeShipping;
}

std::string_view ShippingStrategyName(ShippingStrategy strategy) {
  switch (strategy) {
    case ShippingStrategy::kCodeShipping:
      return "code";
    case ShippingStrategy::kDataShipping:
      return "data";
  }
  return "?";
}

std::string_view ShippingModeName(ShippingMode mode) {
  switch (mode) {
    case ShippingMode::kAlwaysCode:
      return "always-code";
    case ShippingMode::kAlwaysData:
      return "always-data";
    case ShippingMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

}  // namespace bestpeer::core
