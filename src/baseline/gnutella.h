#ifndef BESTPEER_BASELINE_GNUTELLA_H_
#define BESTPEER_BASELINE_GNUTELLA_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/session.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "util/wire.h"

namespace bestpeer::baseline {

/// Gnutella descriptors travel as this sim message type; the Gnutella
/// header (GUID, function, TTL, Hops) is encoded inside the payload, as
/// on the real wire.
constexpr uint32_t kGnutellaDescriptorType = 0x474E5554;  // "GNUT"

/// Gnutella v0.4 payload descriptors.
enum class GnutellaFunction : uint8_t {
  kPing = 0x00,
  kPong = 0x01,
  kPush = 0x40,
  kQuery = 0x80,
  kQueryHit = 0x81,
};

/// 16-byte descriptor id, as in the real protocol.
using Guid = std::array<uint8_t, 16>;

/// A Gnutella descriptor (header + raw payload bytes).
struct GnutellaDescriptor {
  Guid guid = {};
  GnutellaFunction function = GnutellaFunction::kPing;
  uint8_t ttl = 0;
  uint8_t hops = 0;
  Bytes payload;

  static Status Wire(auto& m, auto& io) {
    return io(m.guid,
              wire::Enum(m.function, GnutellaFunction::kPing,
                         GnutellaFunction::kQueryHit),
              m.ttl, m.hops, m.payload);
  }
  /// Rejects the function codes between the defined ones.
  Status Check() const;
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<GnutellaDescriptor> Decode(const Bytes& data) {
    return wire::Decode<GnutellaDescriptor>(data);
  }
};

/// Query payload: minimum speed (unused) + search keywords.
struct GnutellaQuery {
  uint16_t min_speed = 0;
  std::string keywords;

  static Status Wire(auto& m, auto& io) { return io(m.min_speed, m.keywords); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<GnutellaQuery> Decode(const Bytes& data) {
    return wire::Decode<GnutellaQuery>(data);
  }
};

/// QueryHit payload: responder + matching file entries. Routed back to
/// the initiator hop-by-hop along the reverse query path — the behaviour
/// Fig. 8 penalizes ("the list of files have to be transmitted through
/// the query traversal path!").
struct GnutellaQueryHit {
  NodeId responder = kInvalidNode;
  struct FileEntry {
    uint32_t index = 0;
    uint32_t size = 0;
    std::string name;

    static Status Wire(auto& m, auto& io) {
      return io(m.index, m.size, m.name);
    }
  };
  std::vector<FileEntry> files;

  static Status Wire(auto& m, auto& io) { return io(m.responder, m.files); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<GnutellaQueryHit> Decode(const Bytes& data) {
    return wire::Decode<GnutellaQueryHit>(data);
  }
};

/// Push payload: asks a (possibly firewalled) responder to open the data
/// connection itself. Routed hop-by-hop along the path its QueryHit
/// travelled, keyed by the responder's servent id.
struct GnutellaPush {
  NodeId target_servent = kInvalidNode;
  NodeId requester = kInvalidNode;
  uint32_t file_index = 0;

  static Status Wire(auto& m, auto& io) {
    return io(m.target_servent, m.requester, m.file_index);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<GnutellaPush> Decode(const Bytes& data) {
    return wire::Decode<GnutellaPush>(data);
  }
};

/// Pong payload: the answering servant and how many files it shares.
/// Pongs are counted where they end, never parsed.
struct GnutellaPong {
  NodeId servent = kInvalidNode;
  uint32_t file_count = 0;

  static Status Wire(auto& m, auto& io) { return io(m.servent, m.file_count); }
};

/// Out-of-band message a pushed servent sends straight to the requester
/// (models the servent opening the upload connection).
constexpr uint32_t kGnutellaPushOpenType = 0x474E5550;  // "GNUP"

/// Gnutella servant configuration. Its costs (file match, route, and
/// the per-byte QueryHit relay shared with the CS model) are
/// net/cost_model.h constants.
struct GnutellaConfig {
  uint8_t default_ttl = 7;
};

/// Search bookkeeping at the initiating servant.
class GnutellaSession {
 public:
  GnutellaSession() = default;
  GnutellaSession(SimTime start) : start_(start) {}  // NOLINT

  void RecordHit(const core::ResponseEvent& event) {
    hits_.push_back(event);
  }

  const std::vector<core::ResponseEvent>& hits() const { return hits_; }
  size_t total_files() const;
  size_t responder_count() const;
  SimTime start_time() const { return start_; }
  /// Time from query to last QueryHit received.
  SimTime completion_time() const;

 private:
  SimTime start_ = 0;
  std::vector<core::ResponseEvent> hits_;
};

/// A Gnutella v0.4 servant (modelled on FURI, the paper's comparator):
/// fixed neighbour set, flood Queries with TTL/Hops, GUID routing tables,
/// QueryHits relayed along the reverse path. No reconfiguration —
/// "a node has a fixed set of peers".
class GnutellaNode {
 public:
  static Result<std::unique_ptr<GnutellaNode>> Create(
      net::Transport* transport, GnutellaConfig config);

  GnutellaNode(const GnutellaNode&) = delete;
  GnutellaNode& operator=(const GnutellaNode&) = delete;

  /// Wires a neighbour locally (call on both endpoints).
  void AddNeighborLocal(NodeId peer);
  std::vector<NodeId> Neighbors() const;

  /// Shares a text file by name (keyword search matches names, as FURI
  /// "can only evaluate keyword search on text files").
  void ShareFile(const std::string& name, uint32_t size_bytes = 1024);
  size_t shared_file_count() const { return files_.size(); }

  /// Floods a Query; returns the GUID key identifying the session.
  Result<uint64_t> IssueQuery(const std::string& keywords, uint8_t ttl = 0);

  const GnutellaSession* FindSession(uint64_t query_key) const;

  /// Sends a Ping (network discovery); Pongs route back like QueryHits.
  void SendPing();

  /// Sends a Push for `file_index` toward the servant that answered
  /// `query_key` (it must have produced a QueryHit we received). The
  /// pushed servant "opens a connection" back to us out-of-band.
  Status SendPush(uint64_t query_key, NodeId target_servent,
                  uint32_t file_index);

  /// Uploads opened toward this node in response to its Pushes.
  uint64_t push_opens_received() const { return push_opens_received_; }
  /// Pushes this servant honoured (as the target).
  uint64_t pushes_served() const { return pushes_served_; }

  NodeId node() const { return node_; }
  uint64_t descriptors_routed() const { return descriptors_routed_; }
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  uint64_t pongs_received() const { return pongs_received_; }

 private:
  GnutellaNode(net::Transport* transport,
               GnutellaConfig config);
  Status Init();

  void OnDescriptor(const net::Message& msg);
  void HandleQuery(const GnutellaDescriptor& desc, NodeId from);
  void HandleQueryHit(const GnutellaDescriptor& desc, NodeId from);
  void HandlePing(const GnutellaDescriptor& desc, NodeId from);
  void HandlePong(const GnutellaDescriptor& desc, NodeId from);
  void HandlePush(const GnutellaDescriptor& desc, NodeId from);

  /// Forwards `desc` to all neighbours except `skip` after route cost.
  void Flood(GnutellaDescriptor desc, NodeId skip);

  Guid MakeGuid();
  static uint64_t GuidKey(const Guid& guid);

  net::Transport* transport_;
  NodeId node_;
  GnutellaConfig config_;
  std::unique_ptr<net::Dispatcher> dispatcher_;

  std::set<NodeId> neighbors_;
  std::vector<std::pair<std::string, uint32_t>> files_;  // (name, size)

  /// GUID -> neighbour the descriptor arrived from (reverse route).
  std::map<uint64_t, NodeId> query_routes_;
  std::map<uint64_t, NodeId> ping_routes_;
  /// Responder servent id -> neighbour its QueryHit arrived from
  /// (forward route for Push descriptors).
  std::map<NodeId, NodeId> push_routes_;
  std::set<uint64_t> seen_;

  std::map<uint64_t, GnutellaSession> sessions_;
  uint64_t guid_counter_ = 0;
  uint64_t descriptors_routed_ = 0;
  uint64_t duplicates_dropped_ = 0;
  uint64_t pongs_received_ = 0;
  uint64_t push_opens_received_ = 0;
  uint64_t pushes_served_ = 0;
};

}  // namespace bestpeer::baseline

#endif  // BESTPEER_BASELINE_GNUTELLA_H_
