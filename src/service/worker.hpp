#pragma once
// The wire handler every transport connection runs — a serve_stream pipe or
// one TcpServer socket: it parses a protocol line, hands the request to
// QueryService::call and renders the reply frame. It keeps no state of its
// own, so one handler may serve any number of lines in sequence.

#include <string>

namespace parcfl::service {

class QueryService;

class WireSession {
 public:
  explicit WireSession(QueryService& service) : service_(service) {}

  /// Handle one protocol line; returns false when the connection should
  /// close (quit verb). Writes the reply frame (with trailing newline) into
  /// `reply_line`, replacing its contents.
  bool handle(const std::string& line, std::string& reply_line);

 private:
  QueryService& service_;
};

}  // namespace parcfl::service
