#ifndef BESTPEER_CORE_NODE_IO_H_
#define BESTPEER_CORE_NODE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "compress/codec.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "util/logging.h"

namespace bestpeer::core {

/// A node's one typed message path. BestPeer messages travel as encoded
/// structs compressed with the node's codec: Handle names a message type
/// and routes each delivery that decompresses and decodes to a handler
/// (malformed input is dropped), and Send encodes, compresses and sends.
/// The node and its components register and send through nothing else.
class NodeIo {
 public:
  /// Claims `transport`'s deliver callback (transport must outlive this).
  NodeIo(net::Transport* transport, std::shared_ptr<const Codec> codec)
      : transport_(transport),
        codec_(std::move(codec)),
        dispatcher_(transport) {}
  NodeIo(const NodeIo&) = delete;
  NodeIo& operator=(const NodeIo&) = delete;

  net::Transport& transport() const { return *transport_; }
  /// For protocol clients that route their own message types (LIGLO).
  net::Dispatcher* dispatcher() { return &dispatcher_; }

  /// Names `type` and routes its messages to `handler` undecoded: for
  /// payloads the codec does not wrap (agent transfers, gossip frames)
  /// and the payload-less peer notices.
  void HandleRaw(uint32_t type, std::string name,
                 net::Transport::Handler handler) {
    transport_->RegisterTypeName(type, std::move(name));
    dispatcher_.Register(type, std::move(handler));
  }

  /// Names `type` and calls `(owner->*handler)(sender, message)` for each
  /// delivery that decompresses and decodes as an `M`.
  template <typename C, typename M>
  void Handle(uint32_t type, std::string name, C* owner,
              void (C::*handler)(NodeId, M&)) {
    HandleRaw(type, name,
              [this, name, owner, handler](const net::Message& msg) {
                auto payload = codec_->Decompress(msg.payload);
                auto decoded = payload.ok() ? M::Decode(payload.value())
                                            : Result<M>(payload.status());
                if (!decoded.ok()) {
                  BP_LOG(Debug) << "node " << transport_->local()
                                << " dropped " << name << " from " << msg.src
                                << ": " << decoded.status().ToString();
                  return;
                }
                (owner->*handler)(msg.src, decoded.value());
              });
  }

  /// Compresses an encoded payload and sends it; `flow` tags the message
  /// with its query id for tracing (0 = none).
  void Send(NodeId dst, uint32_t type, const Bytes& payload,
            uint64_t flow = 0) {
    auto compressed = codec_->Compress(payload);
    if (!compressed.ok()) {
      BP_LOG(Error) << "compress failed: " << compressed.status().ToString();
      return;
    }
    transport_->Send(dst, type, std::move(compressed).value(), 0, flow);
  }

  /// Encodes `msg`, then sends it as above.
  template <typename M>
  void Send(NodeId dst, uint32_t type, const M& msg, uint64_t flow = 0) {
    Send(dst, type, msg.Encode(), flow);
  }

 private:
  net::Transport* transport_;
  std::shared_ptr<const Codec> codec_;
  net::Dispatcher dispatcher_;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_IO_H_
