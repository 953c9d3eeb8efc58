#pragma once
// The one socket layer of the line protocol (DESIGN.md §7): a blocking,
// newline-framed TCP connection shared by TcpServer's connection loop, the
// load generator and the tests, plus the loopback listener TcpServer
// accepts on. No other file makes socket calls.
//
// Frame-cap rule: every read names its cap, and a line longer than the cap
// fails the read, so the caller drops the peer instead of buffering without
// bound. The server caps request lines at 2 * kMaxRequestLine; clients cap
// reply lines at kMaxReplyLine.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parcfl::service {

inline constexpr std::size_t kMaxReplyLine = std::size_t{1} << 20;  // 1 MiB

class LineConn {
 public:
  LineConn() = default;
  explicit LineConn(int fd) : fd_(fd) {}  // adopt an accepted socket
  ~LineConn() { close(); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Connect to "host:port", or "port" on loopback. Sets TCP_NODELAY and
  /// receive/send timeouts of `deadline_ms` (0 = none), so a dead peer fails
  /// a read or write instead of wedging it.
  bool connect(std::string_view address, std::uint32_t deadline_ms);

  bool send_all(std::string_view data);
  /// send_all(request), then read_line(reply, max_line).
  bool roundtrip(std::string_view request, std::string& reply,
                 std::size_t max_line);

  /// Next line, newline and a trailing CR stripped. False on EOF, error,
  /// timeout, or a line longer than `max_line` bytes.
  bool read_line(std::string& out, std::size_t max_line);

  /// One reply frame: the header line plus the payload lines a counted
  /// header (`ok metrics|slowlog <n>`) announces, none otherwise.
  bool read_frame(std::string& header, std::vector<std::string>& payload,
                  std::size_t max_line);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t head_ = 0;     // start of the unread bytes in buffer_
  std::size_t scanned_ = 0;  // bytes after head_ known to hold no newline
};

/// Listen on 127.0.0.1:`port` (0 = ephemeral) and store the bound port.
/// Returns the listening fd, or -1 with `error` set.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    std::string* error);
/// Next connection on `listen_fd`; -1 once the listener is closed.
int accept_connection(int listen_fd);
/// Close a listener, waking a blocked accept.
void close_listener(int listen_fd);
/// Half-close the read side: a blocked read sees EOF, writes still go out.
void shutdown_read(int fd);

}  // namespace parcfl::service
