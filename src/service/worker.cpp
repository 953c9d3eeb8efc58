#include "service/worker.hpp"

#include <utility>

#include "service/protocol.hpp"
#include "service/service.hpp"

namespace parcfl::service {

bool WireSession::handle(const std::string& line, std::string& reply_line) {
  Request request;
  std::string error;
  Reply reply;
  bool keep_open = true;
  if (!parse_request(line, service_.node_count(), request, error)) {
    service_.note_protocol_error();
    reply = error_reply(std::move(error));
  } else {
    keep_open = request.verb != Verb::kQuit;
    reply = service_.call(std::move(request));
  }
  reply_line = format_reply(reply) + "\n";
  return keep_open;
}

}  // namespace parcfl::service
