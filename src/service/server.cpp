#include "service/server.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "service/line_io.hpp"
#include "service/worker.hpp"

namespace parcfl::service {

namespace {

/// Per-connection handler over a QueryService (worker.hpp).
TcpServer::HandlerFactory service_factory(QueryService& service) {
  return [&service]() -> TcpServer::LineHandler {
    return [wire = WireSession(service)](const std::string& line,
                                         std::string& reply_line) mutable {
      return wire.handle(line, reply_line);
    };
  };
}

}  // namespace

std::uint64_t serve_stream(QueryService& service, std::istream& in,
                           std::ostream& out) {
  std::uint64_t handled = 0;
  WireSession wire(service);
  std::string line, reply;
  while (std::getline(in, line)) {
    ++handled;
    const bool keep_open = wire.handle(line, reply);
    out << reply << std::flush;
    if (!keep_open) break;
  }
  return handled;
}

TcpServer::TcpServer(QueryService& service, std::uint16_t port,
                     std::string* error)
    : TcpServer(service_factory(service), port, error) {}

TcpServer::TcpServer(HandlerFactory factory, std::uint16_t port,
                     std::string* error)
    : factory_(std::move(factory)) {
  listen_fd_ = listen_loopback(port, &port_, error);
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = accept_connection(listen_fd);
    if (fd < 0) break;  // listener closed by shutdown(), or fatal
    std::lock_guard lock(threads_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      // shutdown() already swept the thread list; a connection spawned now
      // would never be joined. Refuse it instead.
      ::close(fd);
      continue;
    }
    // Join the handlers that finished since the last accept: a finished
    // thread keeps its stack until joined. Each marked itself done as its
    // last locked step, so these joins wait for no lock we hold.
    std::erase_if(connections_, [](Connection& c) {
      if (c.done) c.thread.join();
      return c.done;
    });
    connections_.push_back(
        Connection{fd, false, std::thread([this, fd] { handle_connection(fd); })});
  }
}

void TcpServer::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) close_listener(fd);
  std::vector<Connection> connections;
  {
    std::lock_guard lock(threads_mu_);
    // Half-close live connections: their handlers' recv returns 0 and the
    // threads run to completion — in-flight replies still get written (the
    // client sees its answer before the close), new reads see EOF.
    for (const Connection& c : connections_)
      if (!c.done) shutdown_read(c.fd);
    connections.swap(connections_);
  }
  for (Connection& c : connections) c.thread.join();
}

void TcpServer::handle_connection(int fd) {
  const LineHandler handler = factory_();
  LineConn conn(fd);
  std::string line, reply;
  // A line past twice the request cap is a flood of bytes, not a protocol
  // line: drop the connection instead of buffering without bound.
  while (conn.read_line(line, 2 * kMaxRequestLine)) {
    const bool open = handler(line, reply);
    if (!conn.send_all(reply) || !open) break;
  }
  std::lock_guard lock(threads_mu_);
  // The only undone entry on `fd`: an fd number is reused only after close.
  for (Connection& c : connections_)
    if (!c.done && c.fd == fd) c.done = true;
  conn.close();
}

}  // namespace parcfl::service
