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
  // node_count is the *default* tenant's graph size; tenant-prefixed requests
  // pass the no-check sentinel and are validated at dispatch instead (their
  // graph may not even be resident yet). The id must still fit a NodeId.
  if (id >= node_count) {
    error = "node id out of range (graph has " + std::to_string(node_count) +
            " nodes)";
    return false;
  }
  out = pag::NodeId(static_cast<std::uint32_t>(id));
  return true;
}

/// Dispatch-time node check for tenant-prefixed requests: parse with this and
/// the id only has to fit a NodeId (2^32-1 is the invalid sentinel).
constexpr std::uint32_t kNoNodeCheck = 0xffffffffu;

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

std::string format_chain(std::span<const std::uint32_t> chain) {
  if (chain.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(chain[i]);
  }
  return out;
}

bool parse_chain(std::string_view token, std::vector<std::uint32_t>& out,
                 std::string& error) {
  out.clear();
  if (token == "-") return true;
  if (token.empty()) return fail(error, "empty chain");
  while (!token.empty()) {
    const std::size_t dot = token.find('.');
    const std::string_view site_token =
        dot == std::string_view::npos ? token : token.substr(0, dot);
    token.remove_prefix(dot == std::string_view::npos ? token.size() : dot + 1);
    std::uint64_t site = 0;
    if (site_token.empty() || !parse_u64(site_token, site) ||
        site > 0xffffffffull)
      return fail(error, "bad chain site");
    if (out.size() == kMaxChainSites) return fail(error, "chain too deep");
    out.push_back(static_cast<std::uint32_t>(site));
    if (dot != std::string_view::npos && token.empty())
      return fail(error, "bad chain site");  // trailing '.'
  }
  return true;
}

bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxTenantName) return false;
  if (name == "." || name == "..") return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool parse_request(std::string_view line, std::uint32_t node_count,
                   Request& out, std::string& error) {
  out = Request{};
  if (line.size() > kMaxRequestLine) return fail(error, "request line too long");
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  auto tokens = tokenize(line);
  if (tokens.empty()) return fail(error, "empty request");

  // `@<tenant>` prefix routes the request at a named session. Its graph may
  // be evicted right now, so node ids are checked at dispatch, not here.
  if (tokens[0].front() == '@') {
    const std::string_view name = tokens[0].substr(1);
    if (!valid_tenant_name(name)) return fail(error, "bad tenant name");
    out.tenant = std::string(name);
    tokens.erase(tokens.begin());
    if (tokens.empty()) return fail(error, "tenant prefix needs a verb");
    if (tokens[0].front() == '@')
      return fail(error, "duplicate tenant prefix");
    node_count = kNoNodeCheck;
  }

  const std::string_view verb = tokens[0];
  const bool tenant_ok = verb == "query" || verb == "alias" ||
                         verb == "taint" || verb == "depends" ||
                         verb == "save" || verb == "load" ||
                         verb == "update" || verb == "index";
  if (!out.tenant.empty() && !tenant_ok)
    return fail(error, "verb does not take a tenant prefix");
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
  if (verb == "open") {
    if (tokens.size() != 3) return fail(error, "open needs a name and a path");
    if (!valid_tenant_name(tokens[1])) return fail(error, "bad tenant name");
    out.verb = Verb::kOpen;
    out.tenant = std::string(tokens[1]);
    out.path = std::string(tokens[2]);
    return true;
  }
  if (verb == "close") {
    if (tokens.size() != 2) return fail(error, "close needs a name");
    if (!valid_tenant_name(tokens[1])) return fail(error, "bad tenant name");
    out.verb = Verb::kClose;
    out.tenant = std::string(tokens[1]);
    return true;
  }
  if (verb == "part") {
    if (tokens.size() > 2) return fail(error, "part takes at most an id");
    out.verb = Verb::kPart;
    if (tokens.size() == 2) {
      std::uint64_t id = 0;
      if (!parse_u64(tokens[1], id) || id > 0xffffffffull)
        return fail(error, "bad partition id");
      out.part_given = true;
      out.part = static_cast<std::uint32_t>(id);
    }
    return true;
  }
  if (verb == "creset") {
    if (tokens.size() != 1) return fail(error, "verb takes no arguments");
    out.verb = Verb::kCReset;
    return true;
  }
  if (verb == "cont" || verb == "cfact") {
    const bool is_cont = verb == "cont";
    out.verb = is_cont ? Verb::kCont : Verb::kCFact;
    if (tokens.size() < (is_cont ? 4u : 5u))
      return fail(error, is_cont
                             ? "cont needs b|f, a node and a chain"
                             : "cfact needs b|f, a node, a chain and a count");
    if (tokens[1] == "b") {
      out.dir = 0;
    } else if (tokens[1] == "f") {
      out.dir = 1;
    } else {
      return fail(error, "bad direction (want b or f)");
    }
    if (!parse_node(tokens[2], node_count, out.a, error)) return false;
    if (!parse_chain(tokens[3], out.chain, error)) return false;
    if (is_cont) return parse_options(tokens, 4, out, error);
    std::uint64_t k = 0;
    if (!parse_u64(tokens[4], k)) return fail(error, "bad cfact tuple count");
    if (k > kMaxContTuples) return fail(error, "too many cfact tuples");
    if (tokens.size() != 5 + k)
      return fail(error, "cfact tuple count does not match line");
    out.tuples.reserve(k);
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::string_view token = tokens[5 + i];
      const std::size_t colon = token.find(':');
      if (colon == std::string_view::npos)
        return fail(error, "cfact tuple needs <node>:<chain>");
      WireTuple tuple;
      if (!parse_node(token.substr(0, colon), node_count, tuple.node, error))
        return false;
      if (!parse_chain(token.substr(colon + 1), tuple.chain, error))
        return false;
      out.tuples.push_back(std::move(tuple));
    }
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
    case Verb::kOpen:
      os << " opened " << reply.text;
      break;
    case Verb::kClose:
      os << " closed " << reply.text;
      break;
    case Verb::kPing:
      os << " pong";
      break;
    case Verb::kQuit:
      os << " bye";
      break;
    case Verb::kPart:
      os << " part " << reply.text;
      break;
    case Verb::kCont:
      // Counted multi-line frame like metrics/slowlog: the header carries
      // the task status, charge and payload line count.
      os << " cont " << to_string(reply.query_status) << ' '
         << reply.charged_steps << ' ' << count_lines(reply.text);
      if (!reply.text.empty()) os << '\n' << reply.text;
      break;
    case Verb::kCFact:
      os << " cfact " << reply.charged_steps;
      break;
    case Verb::kCReset:
      os << " creset";
      break;
  }
  return os.str();
}

std::uint64_t frame_payload_lines(std::string_view header) {
  const auto tokens = tokenize(header);
  if (tokens.size() < 3 || tokens[0] != "ok") return 0;
  const bool counted = (tokens.size() == 3 && (tokens[1] == "metrics" ||
                                               tokens[1] == "slowlog")) ||
                       (tokens.size() == 5 && tokens[1] == "cont");
  std::uint64_t n = 0;
  if (!counted || !parse_u64(tokens.back(), n) || n > kMaxFrameLines) return 0;
  return n;
}

bool parse_cont_header(std::string_view header, cfl::QueryStatus& status,
                       std::uint64_t& charged) {
  const auto tokens = tokenize(header);
  std::uint64_t lines = 0;
  if (tokens.size() != 5 || tokens[0] != "ok" || tokens[1] != "cont" ||
      !parse_u64(tokens[3], charged) || !parse_u64(tokens[4], lines) ||
      lines > kMaxFrameLines)
    return false;
  for (const cfl::QueryStatus s :
       {cfl::QueryStatus::kComplete, cfl::QueryStatus::kOutOfBudget,
        cfl::QueryStatus::kEarlyTermination})
    if (tokens[2] == to_string(s)) {
      status = s;
      return true;
    }
  return false;
}

std::string format_cont_payload(std::span<const ContRecord> records) {
  std::ostringstream os;
  const auto config = [&os](const WireTuple& t) {
    os << ' ' << t.node.value() << ' ' << format_chain(t.chain);
  };
  for (const ContRecord& r : records) {
    if (&r != records.data()) os << '\n';
    if (r.kind == ContRecord::Kind::kTuple) {
      os << 't';
    } else {
      os << (r.kind == ContRecord::Kind::kRequest ? "e r " : "e u ")
         << (r.dir == 0 ? 'b' : 'f');
    }
    config(r.src);
    if (r.kind != ContRecord::Kind::kTuple) config(r.dst);
  }
  return os.str();
}

bool parse_cont_record(std::string_view line, std::uint32_t node_count,
                       ContRecord& out) {
  out = ContRecord{};
  const auto tokens = tokenize(line);
  std::string error;
  const auto config = [&](std::size_t at, WireTuple& t) {
    return parse_node(tokens[at], node_count, t.node, error) &&
           parse_chain(tokens[at + 1], t.chain, error);
  };
  if (tokens.size() == 3 && tokens[0] == "t") return config(1, out.src);
  if (tokens.size() != 7 || tokens[0] != "e" ||
      (tokens[1] != "u" && tokens[1] != "r") ||
      (tokens[2] != "b" && tokens[2] != "f"))
    return false;
  out.kind = tokens[1] == "r" ? ContRecord::Kind::kRequest
                              : ContRecord::Kind::kUnion;
  out.dir = tokens[2] == "b" ? 0 : 1;
  return config(3, out.src) && config(5, out.dst);
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
