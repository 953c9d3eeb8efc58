#include "service/line_io.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "service/protocol.hpp"

namespace parcfl::service {

bool LineConn::connect(std::string_view address, std::uint32_t deadline_ms) {
  close();
  const std::size_t colon = address.rfind(':');
  std::string host(address.substr(0, colon == address.npos ? 0 : colon));
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  std::uint64_t port = 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // colon + 1 wraps to 0 for a bare port.
  if (!parse_u64(address.substr(colon + 1), port) || port == 0 ||
      port > 65535 || ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return false;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr)) {
    ::close(fd);
    return false;
  }
  timeval tv{};
  tv.tv_sec = deadline_ms / 1000;
  tv.tv_usec = static_cast<long>(deadline_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return true;
}

bool LineConn::send_all(std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool LineConn::roundtrip(std::string_view request, std::string& reply,
                         std::size_t max_line) {
  return send_all(request) && read_line(reply, max_line);
}

bool LineConn::read_line(std::string& out, std::size_t max_line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', head_ + scanned_);
    if (nl != std::string::npos) {
      if (nl - head_ > max_line) return false;
      std::size_t end = nl;
      if (end > head_ && buffer_[end - 1] == '\r') --end;
      out.assign(buffer_, head_, end - head_);
      head_ = nl + 1;
      scanned_ = 0;
      return true;
    }
    scanned_ = buffer_.size() - head_;
    if (scanned_ > max_line) return false;  // a flood, not a line
    // Drop consumed bytes before growing, so a long pipelined stream keeps
    // the buffer at one partial line.
    buffer_.erase(0, head_);
    head_ = 0;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineConn::read_frame(std::string& header,
                          std::vector<std::string>& payload,
                          std::size_t max_line) {
  payload.clear();
  if (!read_line(header, max_line)) return false;
  // Grow with the lines that arrive, not with the count the header claims.
  for (std::uint64_t n = frame_payload_lines(header); n != 0; --n)
    if (!read_line(payload.emplace_back(), max_line)) return false;
  return true;
}

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  head_ = 0;
  scanned_ = 0;
}

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    std::string* error) {
  // A client closing mid-reply must not kill the server process.
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return -1;
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
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

int accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

void close_listener(int listen_fd) {
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
}

void shutdown_read(int fd) { ::shutdown(fd, SHUT_RD); }

}  // namespace parcfl::service
