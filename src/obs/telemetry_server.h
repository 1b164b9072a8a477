#ifndef BESTPEER_OBS_TELEMETRY_SERVER_H_
#define BESTPEER_OBS_TELEMETRY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/reactor.h"
#include "util/result.h"
#include "util/status.h"

namespace bestpeer::obs {

// The live telemetry plane's HTTP side: a minimal HTTP/1.0 server hosted
// on the existing net::Reactor (no extra threads — handlers run on the
// reactor thread, interleaved with message delivery, which is what makes
// it safe for them to read protocol objects), plus a small blocking
// client for bptop and tests. Everything is opt-in: a process that never
// constructs a TelemetryServer pays nothing.

/// One parsed request. Only what the telemetry endpoints need: method,
/// split target, headers.
struct HttpRequest {
  std::string method;   ///< "GET" (anything else is answered 405).
  std::string path;     ///< Target up to '?', e.g. "/flight".
  std::string query;    ///< Raw query string after '?', e.g. "n=16".
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1".
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Value of `key` in a raw query string ("a=1&b=2"); empty when absent.
std::string QueryParam(const std::string& query, std::string_view key);

/// Hard limits the parser enforces before trusting any length: inputs
/// beyond them poison the parser and the connection is closed.
struct HttpParserLimits {
  size_t max_request_line = 4096;
  size_t max_header_bytes = 8192;
  size_t max_headers = 64;
};

/// Incremental HTTP/1.0 request parser for one connection, in the same
/// shape as net::FrameDecoder: Feed() raw bytes, Next() yields a complete
/// request or asks for more; malformed or oversized input poisons the
/// parser — the stream cannot be trusted past the first violation, so
/// the server closes the socket. Request bodies are rejected (the
/// telemetry plane is GET-only); pipelined bytes after the first request
/// are ignored because every response carries `Connection: close`.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpParserLimits limits = {})
      : limits_(limits) {}

  void Feed(const uint8_t* data, size_t len);

  /// True: one request parsed into *out. False: need more bytes.
  /// Error: stream malformed/oversized; no further requests will parse.
  Result<bool> Next(HttpRequest* out);

  bool poisoned() const { return poisoned_; }
  size_t buffered() const { return buf_.size(); }

 private:
  Status Poison(const std::string& reason);

  HttpParserLimits limits_;
  std::string buf_;
  bool poisoned_ = false;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The server. Register handlers, Start(), and every matching GET is
/// answered on the reactor thread. Exact-path routing; unknown paths get
/// 404, non-GET methods 405, parse failures a best-effort 400 then close.
/// Requests parse under the default HttpParserLimits; a connection idle
/// past kConnTimeoutUs (no complete request, unwritten response) is
/// closed, and accepted connections beyond kMaxConnections are closed
/// immediately.
class TelemetryServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  static constexpr int64_t kConnTimeoutUs = 5'000'000;
  static constexpr size_t kMaxConnections = 64;

  /// `reactor` must outlive the server. `address` is the "host:port" to
  /// bind; port 0 lets the kernel pick (read it back via port()).
  /// Loopback by default: the plane is an operator surface, not a public
  /// one. Start() may be called before or after the reactor starts
  /// (registration rides Reactor::Post).
  explicit TelemetryServer(net::Reactor* reactor,
                           std::string address = "127.0.0.1:0");
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Registers the handler for one exact path. Call before Start().
  void AddHandler(std::string path, Handler handler);

  /// Binds and listens (on the calling thread), then registers with the
  /// reactor. Fails on unparseable address or bind/listen errors.
  Status Start();

  /// Closes the listener and every connection. Safe to call whether or
  /// not the reactor is running; idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    HttpRequestParser parser;
    std::string out;       ///< Encoded response awaiting write.
    size_t out_off = 0;
    bool responding = false;  ///< Response queued; close once written.
  };

  // All private methods run on the reactor thread.
  void OnAcceptable();
  void OnConnEvent(int fd, uint32_t events);
  void HandleRequest(Conn& conn, const HttpRequest& request);
  void QueueResponse(Conn& conn, const HttpResponse& response);
  void FlushConn(Conn& conn);
  void CloseConn(int fd);
  void ArmConnTimeout(int fd, uint64_t id);

  net::Reactor* reactor_;
  std::string address_;
  std::map<std::string, Handler> handlers_;
  std::string host_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  bool started_ = false;
  bool stopped_ = false;
  uint64_t next_conn_id_ = 1;
  std::map<int, Conn> conns_;
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_rejected_{0};
};

/// Splits "host:port". Fails on missing/unparseable port.
Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

struct HttpGetResult {
  int status = 0;
  std::string body;
};

/// Blocking HTTP/1.0 GET with a deadline — the client side bptop and the
/// tests poll endpoints with (no curl dependency). Reads to EOF.
Result<HttpGetResult> HttpGet(const std::string& host, uint16_t port,
                              const std::string& target,
                              int timeout_ms = 2000);

}  // namespace bestpeer::obs

#endif  // BESTPEER_OBS_TELEMETRY_SERVER_H_
