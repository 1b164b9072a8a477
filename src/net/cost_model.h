#ifndef BESTPEER_NET_COST_MODEL_H_
#define BESTPEER_NET_COST_MODEL_H_

#include <cstddef>

#include "util/sim_time.h"

/// The calibrated cost model (DESIGN.md §4): every modelled CPU cost the
/// protocol stacks charge through Transport::RunCpu, and every modelled
/// size they put on the wire, defined once. A node always charges its own
/// constants — never values an incoming agent or message carries.
namespace bestpeer::net {

// --- BestPeer search -----------------------------------------------------

/// CPU per object a StorM search agent (or CS server) examines.
inline constexpr SimTime kPerObjectMatchCost = Micros(15);

/// CPU per object a compute agent runs its filter over.
inline constexpr SimTime kComputePerObjectCost = 2 * kPerObjectMatchCost;

/// CPU per posting touched on the index-backed search path.
inline constexpr SimTime kPerPostingCost = Micros(1);

/// CPU for a responder-side result-cache probe that hits (replaces the
/// per-object scan).
inline constexpr SimTime kCacheProbeCost = Micros(5);

/// CPU to handle one incoming result message at the initiator.
inline constexpr SimTime kResultHandlingCost = Micros(200);

/// CPU to serve or store one shipped object (mode-2 fetch, data
/// shipping, replica push).
inline constexpr SimTime kFetchPerObjectCost = Micros(50);

/// Modelled wire size of one mode-2 match descriptor (BestPeer and CS).
inline constexpr size_t kAnswerDescriptorBytes = 64;

// --- mobile agents -------------------------------------------------------

/// CPU to rebuild an agent from its serialized state at a peer.
inline constexpr SimTime kAgentReconstructCost = Millis(4);

/// Extra CPU the first time an agent class is loaded at a node.
inline constexpr SimTime kAgentClassLoadCost = Millis(8);

/// CPU to clone-and-forward an agent to one neighbour.
inline constexpr SimTime kAgentForwardCost = Micros(300);

/// Registered code size of the built-in agent classes, shipped on the
/// wire the first time a class reaches a node.
inline constexpr size_t kAgentCodeBytes = 16 * 1024;

// --- client/server baseline ----------------------------------------------

/// CPU to accept and parse one query at a server.
inline constexpr SimTime kCsQueryHandlingCost = Micros(200);

/// Fixed CPU to relay one answer message one hop toward the base node.
inline constexpr SimTime kCsRelayCost = Micros(500);

/// Relay CPU per payload byte per hop (store-and-forward copy through
/// the server's I/O stack), for CS answers and Gnutella QueryHits alike.
inline constexpr double kRelayPerByteCostUs = 0.5;

// --- Gnutella baseline ---------------------------------------------------

/// CPU to match a query against one shared file name: slightly above
/// kPerObjectMatchCost, because FURI is "a full version program with a
/// GUI interface" (paper §4.6), not a lean engine.
inline constexpr SimTime kGnutellaFileMatchCost = Micros(20);

/// CPU to route one descriptor one hop.
inline constexpr SimTime kGnutellaRouteCost = Micros(800);

/// Modelled wire size of one file entry in a QueryHit.
inline constexpr size_t kGnutellaFileEntryBytes = 64;

// --- LIGLO ---------------------------------------------------------------

/// CPU a LIGLO server charges per handled request.
inline constexpr SimTime kLigloHandlingCost = Micros(300);

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_COST_MODEL_H_
