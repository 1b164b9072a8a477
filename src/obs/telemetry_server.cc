#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace bestpeer::obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

/// Strips one line (up to '\n') from `buf` starting at *pos; the
/// returned view excludes the trailing "\r\n" / "\n". Returns false when
/// no complete line is buffered yet.
bool NextLine(const std::string& buf, size_t* pos, std::string_view* line) {
  const size_t nl = buf.find('\n', *pos);
  if (nl == std::string::npos) return false;
  size_t end = nl;
  if (end > *pos && buf[end - 1] == '\r') --end;
  *line = std::string_view(buf).substr(*pos, end - *pos);
  *pos = nl + 1;
  return true;
}

bool TokenChars(std::string_view s) {
  for (char c : s) {
    if (c <= ' ' || c >= 0x7f) return false;
  }
  return !s.empty();
}

}  // namespace

std::string QueryParam(const std::string& query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair =
        std::string_view(query).substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    if (eq == std::string_view::npos && pair == key) return std::string();
    pos = amp + 1;
  }
  return std::string();
}

// ---------------------------------------------------------------------------
// HttpRequestParser

void HttpRequestParser::Feed(const uint8_t* data, size_t len) {
  if (poisoned_) return;  // The stream is already condemned; drop bytes.
  buf_.append(reinterpret_cast<const char*>(data), len);
}

Status HttpRequestParser::Poison(const std::string& reason) {
  poisoned_ = true;
  return Status::InvalidArgument("http: " + reason);
}

Result<bool> HttpRequestParser::Next(HttpRequest* out) {
  if (poisoned_) return Status::InvalidArgument("http: parser poisoned");

  // Request line first. Bound the search: if no newline has shown up
  // within max_request_line bytes, the line can never become valid.
  size_t pos = 0;
  std::string_view line;
  if (!NextLine(buf_, &pos, &line)) {
    if (buf_.size() > limits_.max_request_line) {
      return Poison("request line over limit");
    }
    return false;
  }
  if (line.size() > limits_.max_request_line) {
    return Poison("request line over limit");
  }
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Poison("malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!TokenChars(method) || !TokenChars(target) ||
      target.front() != '/' || version.rfind("HTTP/", 0) != 0 ||
      version.size() < 8) {
    return Poison("malformed request line");
  }

  // Headers until the blank line, bounded in count and total bytes.
  HttpRequest request;
  request.method = std::string(method);
  request.version = std::string(version);
  const size_t q = target.find('?');
  request.path = std::string(target.substr(0, q));
  if (q != std::string_view::npos) {
    request.query = std::string(target.substr(q + 1));
  }
  const size_t headers_start = pos;
  for (;;) {
    if (pos - headers_start > limits_.max_header_bytes) {
      return Poison("headers over byte limit");
    }
    std::string_view header;
    if (!NextLine(buf_, &pos, &header)) {
      if (buf_.size() - headers_start > limits_.max_header_bytes) {
        return Poison("headers over byte limit");
      }
      return false;  // Blank line not buffered yet.
    }
    if (header.empty()) break;  // End of headers.
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Poison("malformed header");
    }
    if (request.headers.size() >= limits_.max_headers) {
      return Poison("too many headers");
    }
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    request.headers.emplace_back(std::string(header.substr(0, colon)),
                                 std::string(value));
  }

  // GET-only plane: a request advertising a body is refused outright
  // rather than leaving payload bytes to be misparsed as a next request.
  for (const auto& [name, value] : request.headers) {
    std::string lower(name);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == "content-length" && value != "0") {
      return Poison("request body not supported");
    }
    if (lower == "transfer-encoding") {
      return Poison("request body not supported");
    }
  }

  buf_.erase(0, pos);  // Anything pipelined past this point is ignored.
  *out = std::move(request);
  return true;
}

// ---------------------------------------------------------------------------
// TelemetryServer

TelemetryServer::TelemetryServer(net::Reactor* reactor, std::string address)
    : reactor_(reactor), address_(std::move(address)) {}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::AddHandler(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("address must be host:port, got '" +
                                   address + "'");
  }
  char* end = nullptr;
  const long value = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 || value > 65535) {
    return Status::InvalidArgument("bad port in '" + address + "'");
  }
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

Status TelemetryServer::Start() {
  if (started_) return Status::InvalidArgument("telemetry already started");
  uint16_t want_port = 0;
  Status st = ParseHostPort(address_, &host_, &want_port);
  if (!st.ok()) return st;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(want_port);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad telemetry host '" + host_ + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("bind " + address_ + ": " +
                            std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  net::SetNonBlocking(fd);
  listen_fd_ = fd;
  started_ = true;
  reactor_->Post([this]() {
    if (stopped_) return;
    reactor_->AddFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                    [this](uint32_t) { OnAcceptable(); });
  });
  return Status::OK();
}

void TelemetryServer::Stop() {
  if (!started_ || stopped_) return;
  auto cleanup = [this](bool deregister) {
    if (deregister && listen_fd_ >= 0) reactor_->RemoveFd(listen_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (auto& [fd, conn] : conns_) {
      if (deregister) reactor_->RemoveFd(fd);
      ::close(fd);
    }
    conns_.clear();
  };
  stopped_ = true;
  if (reactor_->running()) {
    reactor_->Run([&]() { cleanup(/*deregister=*/true); });
  } else {
    // The reactor loop is gone; its watch table is moot. Just close.
    cleanup(/*deregister=*/false);
  }
}

void TelemetryServer::OnAcceptable() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conns_.size() >= kMaxConnections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    net::SetNonBlocking(fd);
    Conn conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    const uint64_t id = conn.id;
    conns_.emplace(fd, std::move(conn));
    reactor_->AddFd(fd, /*want_read=*/true, /*want_write=*/false,
                    [this, fd](uint32_t events) { OnConnEvent(fd, events); });
    ArmConnTimeout(fd, id);
  }
}

void TelemetryServer::ArmConnTimeout(int fd, uint64_t id) {
  reactor_->AddTimerAt(reactor_->now_us() + kConnTimeoutUs,
                       [this, fd, id]() {
                         auto it = conns_.find(fd);
                         // Guard against fd reuse: only the connection the
                         // timer was armed for is eligible.
                         if (it != conns_.end() && it->second.id == id) {
                           CloseConn(fd);
                         }
                       });
}

void TelemetryServer::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if ((events & net::Reactor::kError) != 0) {
    CloseConn(fd);
    return;
  }
  if ((events & net::Reactor::kReadable) != 0 && !conn.responding) {
    uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn.parser.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF (or hard error) before a complete request: a truncated read.
      CloseConn(fd);
      return;
    }
    HttpRequest request;
    auto parsed = conn.parser.Next(&request);
    if (!parsed.ok()) {
      // Best-effort 400, then close once (if) it flushes.
      HttpResponse bad;
      bad.status = 400;
      bad.body = parsed.status().ToString() + "\n";
      QueueResponse(conn, bad);
      return;
    }
    if (parsed.value()) {
      HandleRequest(conn, request);
      return;
    }
    // Need more bytes; keep reading.
    return;
  }
  if ((events & net::Reactor::kWritable) != 0 && conn.responding) {
    FlushConn(conn);
  }
}

void TelemetryServer::HandleRequest(Conn& conn, const HttpRequest& request) {
  HttpResponse response;
  if (request.method != "GET") {
    response.status = 405;
    response.body = "only GET is served here\n";
  } else {
    auto it = handlers_.find(request.path);
    if (it == handlers_.end()) {
      response.status = 404;
      response.body = "no such endpoint: " + request.path + "\n";
    } else {
      response = it->second(request);
    }
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  QueueResponse(conn, response);
}

void TelemetryServer::QueueResponse(Conn& conn,
                                    const HttpResponse& response) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                response.status, StatusText(response.status),
                response.content_type.c_str(), response.body.size());
  conn.out = head;
  conn.out += response.body;
  conn.out_off = 0;
  conn.responding = true;
  // Response in flight: stop reading (pipelined junk stays in the kernel
  // buffer until the close discards it), start writing.
  reactor_->ModFd(conn.fd, /*want_read=*/false, /*want_write=*/true);
  FlushConn(conn);
}

void TelemetryServer::FlushConn(Conn& conn) {
  const int fd = conn.fd;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(fd);
    return;
  }
  CloseConn(fd);  // HTTP/1.0: one response, then close.
}

void TelemetryServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  reactor_->RemoveFd(fd);
  ::close(fd);
  conns_.erase(it);
}

// ---------------------------------------------------------------------------
// HttpGet

Result<HttpGetResult> HttpGet(const std::string& host, uint16_t port,
                              const std::string& target, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  net::SetNonBlocking(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("connect: ") +
                               std::strerror(err));
  }
  pollfd pfd{fd, POLLOUT, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) {
    ::close(fd);
    return Status::Unavailable("connect timeout");
  }
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
  if (soerr != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("connect: ") +
                               std::strerror(soerr));
  }

  std::string request = "GET " + target + " HTTP/1.0\r\nHost: " + host +
                        "\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, timeout_ms) <= 0) {
        ::close(fd);
        return Status::Unavailable("write timeout");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("write: ") + std::strerror(err));
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      if (raw.size() > 64u * 1024 * 1024) {
        ::close(fd);
        return Status::ResourceExhausted("response over 64 MiB");
      }
      continue;
    }
    if (n == 0) break;  // EOF: HTTP/1.0 end of response.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, timeout_ms) <= 0) {
        ::close(fd);
        return Status::Unavailable("read timeout");
      }
      continue;
    }
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("read: ") + std::strerror(err));
  }
  ::close(fd);

  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    return Status::Internal("malformed response status line");
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > line_end) {
    return Status::Internal("malformed response status line");
  }
  HttpGetResult result;
  result.status = std::atoi(raw.c_str() + sp + 1);
  const size_t body = raw.find("\r\n\r\n");
  if (body == std::string::npos) {
    return Status::Internal("response has no header terminator");
  }
  result.body = raw.substr(body + 4);
  return result;
}

}  // namespace bestpeer::obs
