#include "service/server.hpp"

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "service/worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#include <csignal>
#include <cstring>

namespace parcfl::service {

namespace {

/// Per-connection handler over a QueryService: a WireSession parses lines,
/// serves the worker verbs locally and delegates the rest (worker.hpp).
TcpServer::HandlerFactory service_factory(QueryService& service) {
  return [&service]() -> TcpServer::LineHandler {
    auto session = std::make_shared<WireSession>(service);
    return [session](const std::string& line, std::string& reply_line) {
      return session->handle(line, reply_line);
    };
  };
}

}  // namespace

std::uint64_t serve_stream(QueryService& service, std::istream& in,
                           std::ostream& out) {
  std::uint64_t handled = 0;
  WireSession session(service);
  std::string line, reply;
  while (std::getline(in, line)) {
    ++handled;
    const bool keep_open = session.handle(line, reply);
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
  init(port, error);
}

void TcpServer::init(std::uint16_t port, std::string* error) {
  // A client closing mid-reply must not kill the server process.
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by shutdown(), or fatal
    }
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
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  std::vector<Connection> connections;
  {
    std::lock_guard lock(threads_mu_);
    // Half-close live connections: their handlers' recv returns 0 and the
    // threads run to completion — in-flight replies still get written (the
    // client sees its answer before the close), new reads see EOF.
    for (const Connection& c : connections_)
      if (!c.done) ::shutdown(c.fd, SHUT_RD);
    connections.swap(connections_);
  }
  for (Connection& c : connections) c.thread.join();
}

void TcpServer::handle_connection(int fd) {
  const LineHandler handler = factory_();
  std::string buffer, reply;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    // A flood of bytes with no newline is not a protocol line; cut it off
    // instead of buffering without bound.
    if (buffer.size() > 2 * kMaxRequestLine &&
        buffer.find('\n') == std::string::npos)
      break;
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         open && nl != std::string::npos; nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      open = handler(line, reply);
      std::size_t sent = 0;
      while (sent < reply.size()) {
        const ssize_t w = ::send(fd, reply.data() + sent, reply.size() - sent, 0);
        if (w <= 0) {
          open = false;
          break;
        }
        sent += static_cast<std::size_t>(w);
      }
    }
    buffer.erase(0, start);
  }
  std::lock_guard lock(threads_mu_);
  // The only undone entry on `fd`: an fd number is reused only after close.
  for (Connection& c : connections_)
    if (!c.done && c.fd == fd) c.done = true;
  ::close(fd);
}

}  // namespace parcfl::service
