#ifndef BESTPEER_NET_TCP_TRANSPORT_H_
#define BESTPEER_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/backoff.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/strand_pool.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "util/metrics.h"
#include "util/status.h"

namespace bestpeer::net {

class TcpNet;

/// Tuning knobs for the real TCP backend.
struct TcpOptions {
  /// Per-peer outbound queue bound (messages). Sends beyond this are
  /// dropped and counted in net.tx_dropped — mirroring the simulator's
  /// fire-and-forget drop semantics instead of blocking protocol code.
  size_t max_queue_msgs = 1024;
  /// Metrics sink (not owned; may be nullptr). Instruments are created
  /// and snapshotted on the reactor thread, which also makes every
  /// increment except a store's pool counters: a scan on a worker bumps
  /// those (metrics::Counter's one-writer rule).
  metrics::Registry* metrics = nullptr;
  /// Flight recorder (not owned; may be nullptr). Send/deliver/drop
  /// events are recorded on the reactor thread only, so the ring stays
  /// single-threaded exactly like in the simulator.
  obs::FlightRecorder* flight = nullptr;
  /// Distributed-tracing span recorder (not owned; may be nullptr).
  /// Shared by every node on this fabric and touched only on the reactor
  /// thread. When set, CPU tasks and frame deliveries of sampled flows
  /// record spans, and outgoing frames of sampled flows carry the BPF1
  /// sampled flag so downstream processes record theirs too.
  trace::TraceRecorder* trace = nullptr;
  /// First NodeId this fabric hosts locally. AddNode() hands out
  /// node_base, node_base+1, ... — a multi-process fleet gives each
  /// process a disjoint id range over one shared port plan.
  NodeId node_base = 0;
  /// When nonzero, node k listens on port_base + k and *every* node id —
  /// local or not — is addressable at port_base + id on loopback. Zero
  /// (the default) keeps the single-process behaviour: kernel-assigned
  /// ports, only local nodes addressable.
  uint16_t port_base = 0;
};

/// Transport over real loopback TCP sockets, one listening socket per
/// node. Sockets, framing, timers and every protocol handler run on the
/// fabric's one reactor thread, so protocol stacks keep the simulator's
/// single-threaded execution model while the bytes travel through the
/// kernel for real. The exception is the Offload hook's `work` (an
/// agent's store scan): it runs on a small worker pool, on this node's
/// strand, and its continuation comes back to the reactor.
///
/// The CPU is real too. RunCpu does not emulate the modelled `cost`: the
/// caller's work has already run, so `done` only waits for its turn, and
/// a sampled task's cpu span records the host time it measured (an
/// offloaded worker run included), with `cost` beside it as the
/// `model_us` arg.
///
/// Connections are dialed on demand (first Send to a peer), framed with
/// net::Frame (64-byte header + payload), and redialed with exponential
/// backoff after failures; messages queued on a dead peer survive up to
/// the queue bound.
class TcpTransport final : public Transport {
 public:
  NodeId local() const override { return node_; }
  void Send(NodeId dst, uint32_t type, Bytes payload,
            size_t extra_wire_bytes = 0, FlowId flow = 0) override;
  void SetHandler(Handler handler) override;
  Clock& clock() override;
  void RunCpu(SimTime cost, std::function<void()> done,
              const char* name = nullptr, FlowId flow = 0,
              CpuArgs args = {}) override;
  void RegisterTypeName(uint32_t type, std::string name) override;
  bool IsOnline(NodeId node) const override;
  LinkProfile link() const override;
  obs::FlightRecorder* flight() const override;
  trace::TraceRecorder* trace() const override;

  /// The loopback TCP port this node listens on.
  uint16_t port() const { return port_; }
  uint64_t tx_dropped() const {
    return tx_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t rx_messages() const {
    return rx_messages_.load(std::memory_order_relaxed);
  }

 private:
  friend class TcpNet;

  /// One outbound connection (this node dialing `dst`).
  struct PeerConn {
    int fd = -1;
    bool connecting = false;
    std::deque<Bytes> queue;  // Encoded frames awaiting write.
    size_t write_off = 0;     // Progress into queue.front().
    /// Redial delays: 10 ms, doubling up to 2 s.
    Backoff backoff{Millis(10), Seconds(2)};
    bool retry_scheduled = false;
  };
  /// One accepted inbound connection (byte stream + frame decoder).
  struct InConn {
    int fd = -1;
    FrameDecoder decoder;
  };

  TcpTransport(TcpNet* net, NodeId node, uint16_t port, int listen_fd);

  // All private methods below run on the reactor thread.
  void SendOnReactor(NodeId dst, uint32_t type, Bytes payload,
                     size_t extra_wire_bytes, FlowId flow);
  void StartListening();
  void OnAcceptable();
  void OnInboundReadable(int fd);
  void CloseInbound(int fd);
  void EnsureConnected(NodeId dst, PeerConn& peer);
  /// Connect-completion bookkeeping: counts the connect (and a reconnect
  /// after a failed attempt) and resets the backoff.
  void MarkConnected(PeerConn& peer);
  void OnOutboundWritable(NodeId dst);
  void FlushQueue(NodeId dst, PeerConn& peer);
  void FailOutbound(NodeId dst, PeerConn& peer);
  void CloseAll();
  void Deliver(const FrameHeader& header, Bytes payload);
  void RecordMsgEvent(obs::EventType event, obs::DropCause cause,
                      uint32_t type, NodeId dst, FlowId flow, uint64_t a,
                      uint64_t b);

  TcpNet* net_;
  NodeId node_;
  uint16_t port_;
  int listen_fd_;
  Handler handler_;
  std::map<NodeId, PeerConn> peers_;
  std::map<int, std::unique_ptr<InConn>> inbound_;
  std::map<uint32_t, std::string> type_names_;
  uint64_t next_msg_id_ = 1;

  std::atomic<uint64_t> tx_dropped_{0};
  std::atomic<uint64_t> rx_messages_{0};

  metrics::Counter* tx_msgs_c_ = metrics::Counter::Noop();
  metrics::Counter* tx_bytes_c_ = metrics::Counter::Noop();
  metrics::Counter* tx_dropped_c_ = metrics::Counter::Noop();
  metrics::Counter* rx_msgs_c_ = metrics::Counter::Noop();
  metrics::Counter* rx_bytes_c_ = metrics::Counter::Noop();
  metrics::Counter* rx_dropped_c_ = metrics::Counter::Noop();
  metrics::Counter* frame_errors_c_ = metrics::Counter::Noop();
  metrics::Counter* connects_c_ = metrics::Counter::Noop();
  metrics::Counter* reconnects_c_ = metrics::Counter::Noop();
};

/// Clock over the shared reactor: real microseconds since TcpNet
/// construction, timers on the reactor's timer heap, and offloaded work
/// on the fabric's worker pool.
class TcpClock final : public Clock {
 public:
  explicit TcpClock(TcpNet* net);
  SimTime now() const override { return reactor_->now_us(); }
  void ScheduleAt(SimTime time, std::function<void()> fn) override;
  void ScheduleAfter(SimTime delay, std::function<void()> fn) override;
  /// `work` on a worker, on `node`'s strand; `then` posted to the reactor.
  void Offload(NodeId node, std::function<void()> work,
               std::function<void()> then) override;

 private:
  TcpNet* net_;
  Reactor* reactor_;
};

/// The loopback fabric: owns the reactor thread, the worker pool that
/// runs offloaded work (StrandPool::DefaultWorkers() threads, one strand
/// per node), the NodeId -> port address book and the shared net.*
/// metrics. Add every node before Start(); drive all post-Start
/// interaction with protocol objects through Run() so it executes on the
/// reactor thread.
class TcpNet {
 public:
  explicit TcpNet(TcpOptions options = {});
  ~TcpNet();
  TcpNet(const TcpNet&) = delete;
  TcpNet& operator=(const TcpNet&) = delete;

  /// Creates a node with a listening socket on 127.0.0.1:0 (kernel-
  /// assigned port). Must be called before Start().
  Result<TcpTransport*> AddNode();

  void Start();
  /// Stops the worker pool (work in flight finishes; queued work and every
  /// continuation not yet posted are dropped), closes every socket on the
  /// reactor thread, then joins it.
  void Stop();

  /// Runs `fn` on the reactor thread and waits — the safe way to touch
  /// protocol objects (issue queries, read sessions) while the net runs.
  void Run(std::function<void()> fn) { reactor_.Run(std::move(fn)); }

  /// Marks a node online/offline. Offline nodes drop traffic in both
  /// directions (counted), like the simulator. Thread-safe; only local
  /// nodes can be toggled — remote fleet nodes are always reported up
  /// (their process drops inbound traffic itself when marked offline).
  void SetOnline(NodeId node, bool online);
  bool IsOnline(NodeId node) const;

  /// True when `node` is hosted by this TcpNet (in
  /// [node_base, node_base + node_count())).
  bool IsLocal(NodeId node) const;
  /// True when this fabric can put bytes on the wire toward `node`:
  /// every local node, plus — under a fleet port plan — every id.
  bool Addressable(NodeId node) const;

  uint16_t PortOf(NodeId node) const;
  NodeId node_base() const { return options_.node_base; }
  size_t node_count() const { return nodes_.size(); }
  Reactor& reactor() { return reactor_; }
  TcpClock& clock() { return clock_; }
  StrandPool& pool() { return pool_; }
  const TcpOptions& options() const { return options_; }
  metrics::Registry* metrics() const { return options_.metrics; }

 private:
  friend class TcpTransport;

  TcpOptions options_;
  Reactor reactor_;
  StrandPool pool_;
  TcpClock clock_;
  std::vector<std::unique_ptr<TcpTransport>> nodes_;
  // Indexed by NodeId; atomics so main-thread SetOnline/IsOnline race
  // cleanly with reactor-thread drop checks.
  std::deque<std::atomic<bool>> online_;
  bool started_ = false;
};

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_TCP_TRANSPORT_H_
