#include "service/worker.hpp"

#include <utility>

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
  } else if (request.verb == Verb::kPart) {
    reply = handle_part(request);
  } else if (request.verb == Verb::kCFact) {
    reply = handle_cfact(request);
  } else if (request.verb == Verb::kCont) {
    reply = handle_cont(request);
  } else if (request.verb == Verb::kCReset) {
    reply = handle_creset();
  } else {
    keep_open = request.verb != Verb::kQuit;
    reply = service_.call(std::move(request));
  }
  reply_line = format_reply(reply) + "\n";
  return keep_open;
}

Reply WireSession::handle_part(const Request& request) {
  Session& session = service_.session();
  if (!session.partitioned()) return error_reply("not a worker");
  if (request.part_given && request.part != session.partition_id())
    return error_reply("unknown partition");
  Reply r;
  r.verb = Verb::kPart;
  r.text = std::to_string(session.partition_id()) + ' ' +
           std::to_string(session.partition_count()) + ' ' +
           std::to_string(session.node_count()) + ' ' +
           std::to_string(session.revision());
  return r;
}

Reply WireSession::handle_cfact(const Request& request) {
  Session& session = service_.session();
  if (!session.partitioned()) return error_reply("not a worker");
  std::string error;
  cfl::CtxId rc = cfl::ContextTable::empty();
  if (!session.intern_chain(request.chain, &rc, &error))
    return error_reply(std::move(error));
  const std::uint64_t config =
      (static_cast<std::uint64_t>(request.a.value()) << 32) | rc.value();
  const cfl::Direction dir =
      request.dir == 0 ? cfl::Direction::kBackward : cfl::Direction::kForward;
  auto& bucket = dir == cfl::Direction::kBackward ? facts_.backward[config]
                                                  : facts_.forward[config];
  auto& seen = seen_[(config << 1) | request.dir];
  for (const WireTuple& tuple : request.tuples) {
    cfl::CtxId ctx = cfl::ContextTable::empty();
    if (!session.intern_chain(tuple.chain, &ctx, &error))
      return error_reply(std::move(error));
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(tuple.node.value()) << 32) | ctx.value();
    if (!seen.insert(packed).second) continue;  // union-idempotent
    bucket.push_back(cfl::PtPair{tuple.node, ctx});
    ++fact_total_;
  }
  Reply r;
  r.verb = Verb::kCFact;
  r.charged_steps = fact_total_;
  return r;
}

Reply WireSession::handle_cont(const Request& request) {
  Session& session = service_.session();
  if (!session.partitioned()) return error_reply("not a worker");
  Session::ContRequest cont;
  cont.node = request.a;
  cont.dir =
      request.dir == 0 ? cfl::Direction::kBackward : cfl::Direction::kForward;
  cont.chain = request.chain;
  cont.budget = request.budget;
  Session::ContResult result;
  std::string error;
  if (!session.run_continuation(cont, facts_, result, &error))
    return error_reply(std::move(error));
  Reply r;
  r.verb = Verb::kCont;
  r.query_status = result.status;
  r.charged_steps = result.charged_steps;
  r.text = format_cont_payload(result.records);
  return r;
}

Reply WireSession::handle_creset() {
  if (!service_.session().partitioned()) return error_reply("not a worker");
  facts_.backward.clear();
  facts_.forward.clear();
  seen_.clear();
  fact_total_ = 0;
  Reply r;
  r.verb = Verb::kCReset;
  return r;
}

}  // namespace parcfl::service
