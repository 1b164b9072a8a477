#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/flight_recorder.h"

namespace bestpeer::net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpClock

TcpClock::TcpClock(TcpNet* net) : net_(net), reactor_(&net->reactor()) {}

void TcpClock::ScheduleAt(SimTime time, std::function<void()> fn) {
  if (reactor_->OnReactorThread()) {
    reactor_->AddTimerAt(time, std::move(fn));
    return;
  }
  reactor_->Post([r = reactor_, time, fn = std::move(fn)]() mutable {
    r->AddTimerAt(time, std::move(fn));
  });
}

void TcpClock::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  if (reactor_->OnReactorThread()) {
    reactor_->AddTimerAt(reactor_->now_us() + delay, std::move(fn));
    return;
  }
  // Deadline is computed on the reactor thread so queueing delay does not
  // shift it twice.
  reactor_->Post([r = reactor_, delay, fn = std::move(fn)]() mutable {
    r->AddTimerAt(r->now_us() + delay, std::move(fn));
  });
}

void TcpClock::Offload(NodeId node, std::function<void()> work,
                       std::function<void()> then) {
  if (!reactor_->OnReactorThread()) {
    reactor_->Post([this, node, work = std::move(work),
                    then = std::move(then)]() mutable {
      Offload(node, std::move(work), std::move(then));
    });
    return;
  }
  if (net_->options().trace != nullptr) {
    // A cpu span the continuation submits reaches back to the callback
    // that offloaded (DESIGN.md §12): the worker's run counts as work, and
    // the waits for a worker and for the reactor count as queue wait.
    struct Stamps {
      SimTime begin = 0, waited = 0, submit = 0, start = 0, end = 0;
    };
    auto stamps = std::make_shared<Stamps>(
        Stamps{reactor_->callback_start_us(), reactor_->callback_wait_us(),
               reactor_->now_us()});
    work = [r = reactor_, stamps, work = std::move(work)]() {
      stamps->start = r->now_us();
      work();
      stamps->end = r->now_us();
    };
    then = [r = reactor_, stamps, then = std::move(then)]() {
      r->ResumeCallback(stamps->begin,
                        stamps->waited + (stamps->start - stamps->submit) +
                            (r->callback_start_us() - stamps->end));
      then();
    };
  }
  net_->pool().Submit(node, std::move(work), std::move(then));
}

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(TcpNet* net, NodeId node, uint16_t port,
                           int listen_fd)
    : net_(net), node_(node), port_(port), listen_fd_(listen_fd) {
  if (metrics::Registry* reg = net_->metrics()) {
    // Fabric-wide counters: every transport holds the same handles, and all
    // increments happen on the one reactor thread.
    tx_msgs_c_ = reg->GetCounter("net.tx_msgs");
    tx_bytes_c_ = reg->GetCounter("net.tx_bytes");
    tx_dropped_c_ = reg->GetCounter("net.tx_dropped");
    rx_msgs_c_ = reg->GetCounter("net.rx_msgs");
    rx_bytes_c_ = reg->GetCounter("net.rx_bytes");
    rx_dropped_c_ = reg->GetCounter("net.rx_dropped");
    frame_errors_c_ = reg->GetCounter("net.frame_errors");
    connects_c_ = reg->GetCounter("net.connects");
    reconnects_c_ = reg->GetCounter("net.reconnects");
  }
}

void TcpTransport::Send(NodeId dst, uint32_t type, Bytes payload,
                        size_t extra_wire_bytes, FlowId flow) {
  Reactor& reactor = net_->reactor();
  if (reactor.OnReactorThread()) {
    SendOnReactor(dst, type, std::move(payload), extra_wire_bytes, flow);
    return;
  }
  reactor.Post([this, dst, type, payload = std::move(payload),
                extra_wire_bytes, flow]() mutable {
    SendOnReactor(dst, type, std::move(payload), extra_wire_bytes, flow);
  });
}

void TcpTransport::SetHandler(Handler handler) {
  handler_ = std::move(handler);
}

Clock& TcpTransport::clock() { return net_->clock(); }

void TcpTransport::RunCpu(SimTime cost, std::function<void()> done,
                          const char* name, FlowId flow, CpuArgs args) {
  Reactor& reactor = net_->reactor();
  if (!reactor.OnReactorThread()) {
    reactor.Post([this, cost, done = std::move(done), name, flow,
                  args = std::move(args)]() mutable {
      RunCpu(cost, std::move(done), name, flow, std::move(args));
    });
    return;
  }
  // The caller has already done the work `cost` models, so nothing waits
  // it out: `done` is a timer due now, which runs after the submitting
  // callback returns and after every task submitted before it.
  const SimTime submit = reactor.now_us();
  trace::TraceRecorder* recorder = net_->options().trace;
  if (recorder != nullptr && name != nullptr &&
      (flow != 0 ? recorder->Sampled(flow) : recorder->sample_all())) {
    // The span measures host time (DESIGN.md §12): the submitting callback
    // up to the submit, less what it waited (an offloaded continuation
    // waited for a worker and for the reactor), plus `done` itself. The
    // modelled figures ride along as model_* args.
    done = [this, recorder, cost, name, flow, submit,
            begin = reactor.callback_start_us(),
            waited = reactor.callback_wait_us(), args = std::move(args),
            done = std::move(done)]() mutable {
      Reactor& r = net_->reactor();
      const SimTime start = r.callback_start_us();
      done();
      const SimTime end = r.now_us();
      for (auto& arg : args) arg.first.insert(0, "model_");
      args.emplace_back("model_us", static_cast<uint64_t>(cost));
      // Like a simulated task, the span ends when `done` does and its
      // queue wait precedes it, reaching back to the submitting callback.
      const SimTime dur = (submit - begin - waited) + (end - start);
      recorder->RecordSpan(trace::CpuSpan(name, node_, begin, end - dur, dur,
                                          flow, std::move(args)));
    };
  }
  reactor.AddTimerAt(submit, std::move(done));
}

void TcpTransport::RegisterTypeName(uint32_t type, std::string name) {
  type_names_[type] = std::move(name);
}

bool TcpTransport::IsOnline(NodeId node) const {
  return net_->IsOnline(node);
}

// The simulated LAN's parameters: the shipping cost model reads them, so
// both backends price shipping alike.
LinkProfile TcpTransport::link() const { return LinkProfile{}; }

obs::FlightRecorder* TcpTransport::flight() const {
  return net_->options().flight;
}

trace::TraceRecorder* TcpTransport::trace() const {
  return net_->options().trace;
}

void TcpTransport::RecordMsgEvent(obs::EventType event, obs::DropCause cause,
                                  uint32_t type, NodeId dst, FlowId flow,
                                  uint64_t a, uint64_t b) {
  obs::FlightRecorder* recorder = net_->options().flight;
  if (recorder == nullptr) return;
  obs::FlightEvent e;
  e.ts = net_->reactor().now_us();
  e.type = event;
  e.cause = cause;
  e.msg_type = type;
  e.node = node_;
  e.peer = dst;
  e.flow = flow;
  e.a = a;
  e.b = b;
  recorder->Record(e);
}

void TcpTransport::SendOnReactor(NodeId dst, uint32_t type, Bytes payload,
                                 size_t extra_wire_bytes, FlowId flow) {
  if (!net_->Addressable(dst) || !net_->IsOnline(dst) ||
      !net_->IsOnline(node_) ||
      payload.size() > kMaxFramePayload) {
    tx_dropped_.fetch_add(1, std::memory_order_relaxed);
    tx_dropped_c_->Increment();
    RecordMsgEvent(obs::EventType::kMsgDrop,
                   !net_->IsOnline(node_) ? obs::DropCause::kSenderOffline
                                          : obs::DropCause::kReceiverOffline,
                   type, dst, flow, payload.size(), 0);
    return;
  }
  FrameHeader header;
  header.type = type;
  header.src = node_;
  header.dst = dst;
  header.flow = flow;
  header.extra_wire = static_cast<uint32_t>(extra_wire_bytes);
  trace::TraceRecorder* recorder = net_->options().trace;
  if (recorder != nullptr && flow != 0) {
    bool first = false;
    if (recorder->Sampled(flow, &first)) {
      // Propagate the head-based decision: the receiving process sees the
      // flag and records spans for this flow too (DESIGN.md §12).
      header.flags |= kFrameFlagSampled;
      header.sent_at_us = net_->reactor().now_us();
      if (first) {
        RecordMsgEvent(obs::EventType::kTraceSampled, obs::DropCause::kNone,
                       type, dst, flow, /*a=*/0, /*b=*/0);
      }
    }
  }
  Bytes frame = EncodeFrame(header, payload);

  PeerConn& peer = peers_[dst];
  if (peer.queue.size() >= net_->options().max_queue_msgs) {
    tx_dropped_.fetch_add(1, std::memory_order_relaxed);
    tx_dropped_c_->Increment();
    // Backpressure drop: neither end is offline, the queue is just full.
    RecordMsgEvent(obs::EventType::kMsgDrop, obs::DropCause::kNone, type,
                   dst, flow, payload.size(), peer.queue.size());
    return;
  }
  tx_msgs_c_->Increment();
  tx_bytes_c_->Add(frame.size() + extra_wire_bytes);
  RecordMsgEvent(obs::EventType::kMsgSend, obs::DropCause::kNone, type, dst,
                 flow, payload.size(), frame.size() + extra_wire_bytes);
  peer.queue.push_back(std::move(frame));
  EnsureConnected(dst, peer);
  if (peer.fd >= 0 && !peer.connecting) FlushQueue(dst, peer);
}

void TcpTransport::StartListening() {
  net_->reactor().AddFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                        [this](uint32_t events) {
                          if (events & Reactor::kReadable) OnAcceptable();
                        });
}

void TcpTransport::OnAcceptable() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms us.
    SetNonBlocking(fd);
    SetNoDelay(fd);
    auto conn = std::make_unique<InConn>();
    conn->fd = fd;
    inbound_[fd] = std::move(conn);
    net_->reactor().AddFd(fd, /*want_read=*/true, /*want_write=*/false,
                          [this, fd](uint32_t events) {
                            if (events & Reactor::kError) {
                              CloseInbound(fd);
                              return;
                            }
                            if (events & Reactor::kReadable) {
                              OnInboundReadable(fd);
                            }
                          });
  }
}

void TcpTransport::OnInboundReadable(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  InConn* conn = it->second.get();
  uint8_t buf[65536];
  bool closed = false;
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;  // EOF or hard error; deliver buffered frames first.
    break;
  }
  FrameHeader header;
  Bytes payload;
  for (;;) {
    auto next = conn->decoder.Next(&header, &payload);
    if (!next.ok()) {
      frame_errors_c_->Increment();
      CloseInbound(fd);
      return;
    }
    if (!next.value()) break;
    if (header.dst != node_) {
      frame_errors_c_->Increment();
      continue;
    }
    if (!net_->IsOnline(node_) || !net_->Addressable(header.src) ||
        !net_->IsOnline(header.src)) {
      rx_dropped_c_->Increment();
      continue;
    }
    Deliver(header, std::move(payload));
    // The handler may have torn connections down; re-check before
    // touching the decoder again.
    if (inbound_.find(fd) == inbound_.end()) return;
  }
  if (closed) CloseInbound(fd);
}

void TcpTransport::CloseInbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  net_->reactor().RemoveFd(fd);
  ::close(fd);
  inbound_.erase(it);
}

void TcpTransport::EnsureConnected(NodeId dst, PeerConn& peer) {
  if (peer.fd >= 0 || peer.retry_scheduled) return;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    FailOutbound(dst, peer);
    return;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(net_->PortOf(dst));
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc == 0) {
    peer.fd = fd;
    MarkConnected(peer);
    net_->reactor().AddFd(fd, /*want_read=*/true, /*want_write=*/false,
                          [this, dst](uint32_t events) {
                            (void)events;
                            OnOutboundWritable(dst);
                          });
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd);
    FailOutbound(dst, peer);
    return;
  }
  peer.fd = fd;
  peer.connecting = true;
  net_->reactor().AddFd(fd, /*want_read=*/true, /*want_write=*/true,
                        [this, dst](uint32_t events) {
                          (void)events;
                          OnOutboundWritable(dst);
                        });
}

void TcpTransport::MarkConnected(PeerConn& peer) {
  peer.connecting = false;
  if (peer.backoff.attempts() > 0) reconnects_c_->Increment();
  connects_c_->Increment();
  peer.backoff.Reset();
}

void TcpTransport::OnOutboundWritable(NodeId dst) {
  auto it = peers_.find(dst);
  if (it == peers_.end()) return;
  PeerConn& peer = it->second;
  if (peer.fd < 0) return;
  if (peer.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      FailOutbound(dst, peer);
      return;
    }
    MarkConnected(peer);
  }
  // Detect a peer that closed on us: level-triggered readability on an
  // outbound socket means EOF or an error (we never expect data back).
  char probe;
  ssize_t n = ::recv(peer.fd, &probe, 1, MSG_DONTWAIT | MSG_PEEK);
  if (n == 0) {
    FailOutbound(dst, peer);
    return;
  }
  FlushQueue(dst, peer);
}

void TcpTransport::FlushQueue(NodeId dst, PeerConn& peer) {
  while (!peer.queue.empty()) {
    const Bytes& front = peer.queue.front();
    ssize_t n = ::write(peer.fd, front.data() + peer.write_off,
                        front.size() - peer.write_off);
    if (n > 0) {
      peer.write_off += static_cast<size_t>(n);
      if (peer.write_off == front.size()) {
        peer.queue.pop_front();
        peer.write_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      net_->reactor().ModFd(peer.fd, /*want_read=*/true, /*want_write=*/true);
      return;
    }
    FailOutbound(dst, peer);
    return;
  }
  net_->reactor().ModFd(peer.fd, /*want_read=*/true, /*want_write=*/false);
}

void TcpTransport::FailOutbound(NodeId dst, PeerConn& peer) {
  if (peer.fd >= 0) {
    net_->reactor().RemoveFd(peer.fd);
    ::close(peer.fd);
    peer.fd = -1;
  }
  peer.connecting = false;
  // A partially written frame never completed on the receiver (it tears the
  // whole connection down on truncation), so resend it from the start.
  peer.write_off = 0;
  if (peer.queue.empty() || peer.retry_scheduled) return;
  peer.retry_scheduled = true;
  SimTime delay = peer.backoff.Next();
  net_->reactor().AddTimerAt(net_->reactor().now_us() + delay,
                             [this, dst]() {
                               auto it = peers_.find(dst);
                               if (it == peers_.end()) return;
                               PeerConn& p = it->second;
                               p.retry_scheduled = false;
                               if (p.queue.empty()) return;
                               EnsureConnected(dst, p);
                               if (p.fd >= 0 && !p.connecting) {
                                 FlushQueue(dst, p);
                               }
                             });
}

void TcpTransport::CloseAll() {
  Reactor& reactor = net_->reactor();
  if (listen_fd_ >= 0) {
    reactor.RemoveFd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [dst, peer] : peers_) {
    (void)dst;
    if (peer.fd >= 0) {
      reactor.RemoveFd(peer.fd);
      ::close(peer.fd);
      peer.fd = -1;
    }
    peer.queue.clear();
  }
  for (auto& [fd, conn] : inbound_) {
    (void)conn;
    reactor.RemoveFd(fd);
    ::close(fd);
  }
  inbound_.clear();
}

void TcpTransport::Deliver(const FrameHeader& header, Bytes payload) {
  rx_messages_.fetch_add(1, std::memory_order_relaxed);
  rx_msgs_c_->Increment();
  rx_bytes_c_->Add(kFrameOverheadBytes + payload.size() + header.extra_wire);
  if (obs::FlightRecorder* recorder = net_->options().flight) {
    obs::FlightEvent e;
    e.ts = net_->reactor().now_us();
    e.type = obs::EventType::kMsgDeliver;
    e.msg_type = header.type;
    e.node = header.src;  // Convention: primary node is the sender.
    e.peer = node_;
    e.flow = header.flow;
    e.a = payload.size();
    e.b = kFrameOverheadBytes + payload.size() + header.extra_wire;
    recorder->Record(e);
  }
  trace::TraceRecorder* recorder = net_->options().trace;
  // Each frame is its own callback for the cpu spans its handler submits.
  if (recorder != nullptr) net_->reactor().MarkCallbackStart();
  if (recorder != nullptr && header.sampled() && header.flow != 0) {
    if (recorder->ForceSample(header.flow)) {
      // First sighting of this sampled flow in this process — cross-link
      // it into the flight recorder (a = 1: forced by an inbound frame).
      RecordMsgEvent(obs::EventType::kTraceSampled, obs::DropCause::kNone,
                     header.type, header.src, header.flow, /*a=*/1, /*b=*/0);
    }
    trace::Span span;
    span.name = trace::MessageName(type_names_, header.type);
    span.cat = "net";
    span.tid = node_;
    span.flow = header.flow;
    const SimTime now = net_->reactor().callback_start_us();
    if (net_->IsLocal(header.src) && header.sent_at_us > 0 &&
        header.sent_at_us <= now) {
      // Same process, same clock: the span covers queue + wire time.
      span.ts = header.sent_at_us;
      span.dur = now - header.sent_at_us;
    } else {
      // Cross-process: clocks differ, so record a point event at receipt
      // and let bpstitch synthesize wire time from the sent_us arg.
      span.ts = now;
      span.dur = 0;
    }
    span.args = {
        {"src", header.src},
        {"dst", node_},
        {"wire", kFrameOverheadBytes + payload.size() + header.extra_wire},
        {"sent_us", static_cast<uint64_t>(header.sent_at_us)}};
    recorder->RecordSpan(std::move(span));
  }
  if (!handler_) return;
  Message msg;
  msg.src = header.src;
  msg.dst = header.dst;
  msg.type = header.type;
  msg.wire_size =
      payload.size() + kFrameOverheadBytes + header.extra_wire;
  msg.payload = std::move(payload);
  msg.id = next_msg_id_++;
  msg.flow = header.flow;
  handler_(msg);
}

// ---------------------------------------------------------------------------
// TcpNet

TcpNet::TcpNet(TcpOptions options)
    : options_(options),
      pool_(StrandPool::DefaultWorkers(),
            [this](StrandPool::Fn fn) { reactor_.Post(std::move(fn)); }),
      clock_(this) {}

TcpNet::~TcpNet() {
  Stop();
  // Nodes added but never started still own open listen sockets.
  for (auto& node : nodes_) {
    if (node->listen_fd_ >= 0) {
      ::close(node->listen_fd_);
      node->listen_fd_ = -1;
    }
  }
}

Result<TcpTransport*> TcpNet::AddNode() {
  if (started_) {
    return Status::FailedPrecondition("AddNode after Start");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const NodeId id = options_.node_base + static_cast<NodeId>(nodes_.size());
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Under a fleet port plan every node's port is a pure function of its
  // id, so other processes can dial it without any exchange; otherwise
  // the kernel assigns one.
  addr.sin_port =
      options_.port_base != 0
          ? htons(static_cast<uint16_t>(options_.port_base + id))
          : 0;
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IoError("bind(127.0.0.1) failed");
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  SetNonBlocking(fd);
  nodes_.emplace_back(
      new TcpTransport(this, id, ntohs(addr.sin_port), fd));
  online_.emplace_back(true);
  return nodes_.back().get();
}

void TcpNet::Start() {
  if (started_) return;
  started_ = true;
  reactor_.Start();
  pool_.Start();
  reactor_.Run([this]() {
    for (auto& node : nodes_) node->StartListening();
  });
}

void TcpNet::Stop() {
  if (!started_) return;
  // Workers first: no continuation reaches the reactor once sockets close.
  pool_.Stop();
  reactor_.Run([this]() {
    for (auto& node : nodes_) node->CloseAll();
  });
  reactor_.Stop();
  started_ = false;
}

void TcpNet::SetOnline(NodeId node, bool online) {
  if (IsLocal(node)) {
    online_[node - options_.node_base].store(online,
                                             std::memory_order_release);
  }
}

bool TcpNet::IsOnline(NodeId node) const {
  if (IsLocal(node)) {
    return online_[node - options_.node_base].load(std::memory_order_acquire);
  }
  // Remote fleet nodes are assumed up; their own process drops inbound
  // traffic when they are marked offline there.
  return options_.port_base != 0;
}

bool TcpNet::IsLocal(NodeId node) const {
  return node >= options_.node_base &&
         node - options_.node_base < nodes_.size();
}

bool TcpNet::Addressable(NodeId node) const {
  return IsLocal(node) || options_.port_base != 0;
}

uint16_t TcpNet::PortOf(NodeId node) const {
  if (IsLocal(node)) return nodes_[node - options_.node_base]->port();
  if (options_.port_base != 0) {
    return static_cast<uint16_t>(options_.port_base + node);
  }
  return 0;
}

}  // namespace bestpeer::net
