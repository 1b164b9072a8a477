#ifndef BESTPEER_LIGLO_BPID_H_
#define BESTPEER_LIGLO_BPID_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace bestpeer::liglo {

/// A simulated network address ("IP"). Nodes with variable connectivity
/// get a different IpAddress each session; the physical NodeId stays
/// fixed (it models the machine, not its address).
using IpAddress = uint32_t;

/// Sentinel for "no address".
constexpr IpAddress kInvalidIp = 0;

/// BestPeer global identity (paper §2): a (LIGLOID, NodeID) pair, where
/// LIGLOID identifies the issuing LIGLO server (its fixed address) and
/// NodeID is unique within that server. A BPID recognizes a node across
/// IP changes.
struct Bpid {
  uint32_t liglo_id = 0;
  uint32_t node_id = 0;

  friend auto operator<=>(const Bpid&, const Bpid&) = default;

  bool IsValid() const { return liglo_id != 0 || node_id != 0; }

  /// "liglo/node", e.g. "3/17".
  std::string ToString() const;

  /// Parses the ToString format.
  static Result<Bpid> Parse(std::string_view text);

  static Status Wire(auto& m, auto& io) { return io(m.liglo_id, m.node_id); }
};

}  // namespace bestpeer::liglo

#endif  // BESTPEER_LIGLO_BPID_H_
