#include "service/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace parcfl::service {

// CR from CRLF clients is stripped upstream (LineConn, parse_request).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

bool parse_u64(std::string_view token, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

namespace {

bool parse_node(std::string_view token, std::uint32_t node_count,
                pag::NodeId& out, std::string& error) {
  if (!token.empty() && (token.front() == 'v' || token.front() == 'V'))
    token.remove_prefix(1);
  std::uint64_t id = 0;
  if (token.empty() || !parse_u64(token, id)) {
    error = "bad node id";
    return false;
  }
  if (id >= node_count) {
    error = "node id out of range (graph has " + std::to_string(node_count) +
            " nodes)";
    return false;
  }
  out = pag::NodeId(static_cast<std::uint32_t>(id));
  return true;
}

/// Parse trailing `budget <n>` / `deadline <ms>` option pairs.
bool parse_options(const std::vector<std::string_view>& tokens, std::size_t from,
                   Request& out, std::string& error) {
  for (std::size_t i = from; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      error = "option '" + std::string(tokens[i]) + "' is missing its value";
      return false;
    }
    std::uint64_t value = 0;
    if (!parse_u64(tokens[i + 1], value)) {
      error = "bad value for option '" + std::string(tokens[i]) + "'";
      return false;
    }
    if (tokens[i] == "budget") {
      out.budget = value;
    } else if (tokens[i] == "deadline") {
      out.deadline_ms = value;
    } else {
      error = "unknown option '" + std::string(tokens[i]) + "'";
      return false;
    }
  }
  return true;
}

bool fail(std::string& error, const char* msg) {
  error = msg;
  return false;
}

std::size_t count_lines(const std::string& text) {
  if (text.empty()) return 0;
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), '\n')) +
         1;
}

}  // namespace

bool parse_request(std::string_view line, std::uint32_t node_count,
                   Request& out, std::string& error) {
  out = Request{};
  if (line.size() > kMaxRequestLine) return fail(error, "request line too long");
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  auto tokens = tokenize(line);
  if (tokens.empty()) return fail(error, "empty request");

  const std::string_view verb = tokens[0];
  if (verb == "query") {
    out.verb = Verb::kQuery;
    if (tokens.size() < 2) return fail(error, "query needs a node id");
    if (!parse_node(tokens[1], node_count, out.a, error)) return false;
    return parse_options(tokens, 2, out, error);
  }
  if (verb == "alias" || verb == "taint" || verb == "depends") {
    out.verb = verb == "alias"   ? Verb::kAlias
               : verb == "taint" ? Verb::kTaint
                                 : Verb::kDepends;
    if (tokens.size() < 3)
      return fail(error, "alias/taint/depends need two node ids");
    if (!parse_node(tokens[1], node_count, out.a, error)) return false;
    if (!parse_node(tokens[2], node_count, out.b, error)) return false;
    return parse_options(tokens, 3, out, error);
  }
  if (verb == "stats" || verb == "metrics" || verb == "ping" ||
      verb == "quit") {
    if (tokens.size() != 1)
      return fail(error, "verb takes no arguments");
    out.verb = verb == "stats"     ? Verb::kStats
               : verb == "metrics" ? Verb::kMetrics
               : verb == "ping"    ? Verb::kPing
                                   : Verb::kQuit;
    return true;
  }
  if (verb == "index") {
    if (tokens.size() != 1) return fail(error, "verb takes no arguments");
    out.verb = Verb::kIndex;
    return true;
  }
  if (verb == "slowlog") {
    if (tokens.size() > 2) return fail(error, "slowlog takes at most a count");
    out.verb = Verb::kSlowLog;
    if (tokens.size() == 2 && !parse_u64(tokens[1], out.count))
      return fail(error, "bad slowlog count");
    return true;
  }
  if (verb == "save" || verb == "load" || verb == "update") {
    if (tokens.size() != 2)
      return fail(error, "save/load/update need exactly a path");
    out.verb = verb == "save"   ? Verb::kSave
               : verb == "load" ? Verb::kLoad
                                : Verb::kUpdate;
    out.path = std::string(tokens[1]);
    return true;
  }
  error = "unknown verb '" + std::string(verb) + "'";
  return false;
}

const char* to_string(cfl::QueryStatus status) {
  switch (status) {
    case cfl::QueryStatus::kComplete: return "complete";
    case cfl::QueryStatus::kOutOfBudget: return "partial";
    case cfl::QueryStatus::kEarlyTermination: return "early";
  }
  return "?";
}

const char* to_string(cfl::Solver::AliasAnswer answer) {
  switch (answer) {
    case cfl::Solver::AliasAnswer::kNo: return "no";
    case cfl::Solver::AliasAnswer::kMay: return "may";
    case cfl::Solver::AliasAnswer::kUnknown: return "unknown";
  }
  return "?";
}

Reply error_reply(std::string text) {
  Reply r;
  r.status = Reply::Status::kError;
  r.text = std::move(text);
  return r;
}

std::string format_reply(const Reply& reply) {
  switch (reply.status) {
    case Reply::Status::kError: return "err " + reply.text;
    case Reply::Status::kShedOverload: return "shed overload";
    case Reply::Status::kShedDeadline: return "shed deadline";
    case Reply::Status::kOk: break;
  }
  std::ostringstream os;
  os << "ok";
  switch (reply.verb) {
    case Verb::kQuery:
      os << ' ' << to_string(reply.query_status) << ' ' << reply.charged_steps
         << ' ' << reply.objects.size();
      for (const pag::NodeId o : reply.objects) os << ' ' << o.value();
      break;
    case Verb::kAlias:
      os << ' ' << to_string(reply.alias) << ' ' << reply.charged_steps;
      break;
    case Verb::kTaint:
      // Same ternary as alias, rendered in taint vocabulary.
      os << ' '
         << (reply.alias == cfl::Solver::AliasAnswer::kMay  ? "tainted"
             : reply.alias == cfl::Solver::AliasAnswer::kNo ? "clean"
                                                            : "unknown")
         << ' ' << reply.charged_steps;
      break;
    case Verb::kDepends:
      os << ' '
         << (reply.alias == cfl::Solver::AliasAnswer::kMay  ? "depends"
             : reply.alias == cfl::Solver::AliasAnswer::kNo ? "independent"
                                                            : "unknown")
         << ' ' << reply.charged_steps;
      break;
    case Verb::kStats:
      os << ' ' << reply.text;
      break;
    case Verb::kMetrics:
    case Verb::kSlowLog:
      // Counted multi-line frame: header announces the payload line count.
      os << (reply.verb == Verb::kMetrics ? " metrics " : " slowlog ")
         << count_lines(reply.text);
      if (!reply.text.empty()) os << '\n' << reply.text;
      break;
    case Verb::kSave:
      os << " saved " << reply.text;
      break;
    case Verb::kLoad:
      os << " loaded " << reply.text;
      break;
    case Verb::kUpdate:
      os << " updated " << reply.text;
      break;
    case Verb::kIndex:
      os << " index " << reply.text;
      break;
    case Verb::kPing:
      os << " pong";
      break;
    case Verb::kQuit:
      os << " bye";
      break;
  }
  return os.str();
}

std::uint64_t frame_payload_lines(std::string_view header) {
  const auto tokens = tokenize(header);
  if (tokens.size() < 3 || tokens[0] != "ok") return 0;
  const bool counted = tokens.size() == 3 &&
                       (tokens[1] == "metrics" || tokens[1] == "slowlog");
  std::uint64_t n = 0;
  if (!counted || !parse_u64(tokens.back(), n) || n > kMaxFrameLines) return 0;
  return n;
}

cfl::Solver::AliasAnswer alias_answer(std::span<const pag::NodeId> a,
                                      cfl::QueryStatus a_status,
                                      std::span<const pag::NodeId> b,
                                      cfl::QueryStatus b_status) {
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] == b[j]) return cfl::Solver::AliasAnswer::kMay;
    a[i] < b[j] ? ++i : ++j;
  }
  return a_status == cfl::QueryStatus::kComplete &&
                 b_status == cfl::QueryStatus::kComplete
             ? cfl::Solver::AliasAnswer::kNo
             : cfl::Solver::AliasAnswer::kUnknown;
}

}  // namespace parcfl::service
