#pragma once
// Wire transports for QueryService: a stream loop (stdin/stdout, unit tests,
// pipes) and a minimal TCP server (one thread per connection; connections
// are expected to be long-lived analysis clients, not web-scale fan-in).
// Both speak the line protocol of service/protocol.hpp.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace parcfl::service {

/// Serve line requests from `in`, one reply line per request on `out`, until
/// EOF or a `quit` verb. Malformed lines get `err ...` replies and never
/// abort the loop. Returns the number of lines handled. Safe to call from
/// multiple threads with distinct streams (the service itself is concurrent).
std::uint64_t serve_stream(QueryService& service, std::istream& in,
                           std::ostream& out);

/// Blocking TCP front-end. Construction binds and listens (port 0 picks an
/// ephemeral port — see port()); serve() accepts until shutdown() is called
/// from another thread. POSIX sockets, one thread per connection.
class TcpServer {
 public:
  /// Handles one protocol line, writing the reply frame (with newline) into
  /// the string; returns false when the connection should close. One handler
  /// per connection (made by the factory), so handlers may keep state; each
  /// is only ever called from its own connection thread.
  using LineHandler = std::function<bool(const std::string&, std::string&)>;
  using HandlerFactory = std::function<LineHandler()>;

  /// Serve a QueryService: each connection gets a WireSession over it.
  TcpServer(QueryService& service, std::uint16_t port, std::string* error);
  /// Serve an arbitrary line handler, e.g. one that times
  /// WireSession::handle.
  TcpServer(HandlerFactory factory, std::uint16_t port, std::string* error);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  bool ok() const { return listen_fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Accept loop; returns once shutdown() has been called (or on a fatal
  /// accept error). Each connection is served on its own thread; threads of
  /// connections that already closed are joined at the next accept, so a
  /// long-running server holds threads (and stacks) for live connections
  /// only, plus at most the ones that closed since the last accept.
  void serve();

  /// Close the listener, half-close every live connection (so a handler
  /// blocked in recv on an idle client wakes up instead of wedging the
  /// join), and join every connection thread. Idempotent.
  void shutdown();

 private:
  void handle_connection(int fd);

  HandlerFactory factory_;
  std::atomic<int> listen_fd_{-1};  // shutdown() races with serve()'s accept
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  /// A handler marks its connection done and closes its fd under
  /// threads_mu_, so shutdown()'s half-close can never hit a reused fd.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };
  std::mutex threads_mu_;
  std::vector<Connection> connections_;
};

}  // namespace parcfl::service
