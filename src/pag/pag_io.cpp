#include "pag/pag_io.hpp"

#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "pag/validate.hpp"

namespace parcfl::pag {

namespace {

const char* kind_token(NodeKind k) {
  switch (k) {
    case NodeKind::kLocal: return "l";
    case NodeKind::kGlobal: return "g";
    case NodeKind::kObject: return "o";
  }
  return "?";
}

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  int line = 0;
};

bool next_line(Cursor& c, std::string_view& out) {
  while (c.pos < c.text.size()) {
    std::size_t end = c.text.find('\n', c.pos);
    if (end == std::string_view::npos) end = c.text.size();
    std::string_view line = c.text.substr(c.pos, end - c.pos);
    c.pos = end + 1;
    ++c.line;
    // Trim and skip blanks/comments.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
      line.remove_prefix(1);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' || line.back() == '\r'))
      line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    out = line;
    return true;
  }
  return false;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool parse_u32(std::string_view token, std::uint32_t& out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Parse "key=value"; returns value on key match.
std::optional<std::string_view> keyed(std::string_view token, std::string_view key) {
  if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
      token[key.size()] == '=')
    return token.substr(key.size() + 1);
  return std::nullopt;
}

}  // namespace

void write_pag(std::ostream& os, const Pag& pag) {
  os << "parcfl-pag 1\n";
  os << "counts nodes=" << pag.node_count() << " fields=" << pag.field_count()
     << " callsites=" << pag.call_site_count() << " types=" << pag.type_count()
     << " methods=" << pag.method_count() << "\n";
  for (std::uint32_t i = 0; i < pag.node_count(); ++i) {
    const NodeId n(i);
    const NodeInfo& info = pag.node(n);
    os << "node " << i << ' ' << kind_token(info.kind);
    if (info.type.valid()) os << " type=" << info.type.value();
    if (info.method.valid()) os << " method=" << info.method.value();
    os << " app=" << (info.is_application ? 1 : 0);
    if (!pag.name(n).empty()) os << " name=" << pag.name(n);
    os << "\n";
  }
  for (const Edge& e : pag.edges()) {
    os << "edge " << to_string(e.kind) << ' ' << e.dst.value() << ' ' << e.src.value();
    if (e.kind == EdgeKind::kLoad || e.kind == EdgeKind::kStore)
      os << " f=" << e.aux;
    else if (e.kind == EdgeKind::kParam || e.kind == EdgeKind::kRet)
      os << " cs=" << e.aux;
    os << "\n";
  }
}

std::string write_pag_string(const Pag& pag) {
  std::ostringstream os;
  write_pag(os, pag);
  return os.str();
}

std::optional<Pag> read_pag_string(const std::string& text, std::string* error) {
  auto fail = [&](int line, const std::string& msg) -> std::optional<Pag> {
    if (error != nullptr) {
      std::ostringstream os;
      os << "line " << line << ": " << msg;
      *error = os.str();
    }
    return std::nullopt;
  };

  Cursor cur{text};
  std::string_view line;

  if (!next_line(cur, line) || split_tokens(line) !=
      std::vector<std::string_view>{"parcfl-pag", "1"})
    return fail(cur.line, "expected header 'parcfl-pag 1'");

  if (!next_line(cur, line)) return fail(cur.line, "missing counts line");
  auto tokens = split_tokens(line);
  if (tokens.empty() || tokens[0] != "counts")
    return fail(cur.line, "expected counts line");
  std::uint32_t nodes = 0, fields = 0, callsites = 0, types = 0, methods = 0;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    std::uint32_t v = 0;
    if (auto s = keyed(tokens[i], "nodes"); s && parse_u32(*s, v)) nodes = v;
    else if (auto s2 = keyed(tokens[i], "fields"); s2 && parse_u32(*s2, v)) fields = v;
    else if (auto s3 = keyed(tokens[i], "callsites"); s3 && parse_u32(*s3, v)) callsites = v;
    else if (auto s4 = keyed(tokens[i], "types"); s4 && parse_u32(*s4, v)) types = v;
    else if (auto s5 = keyed(tokens[i], "methods"); s5 && parse_u32(*s5, v)) methods = v;
    else return fail(cur.line, "bad counts token");
  }

  Pag::Builder builder;
  builder.set_counts(fields, callsites, types, methods);
  builder.set_dedupe(false);  // preserve the file's edge multiset exactly
  std::uint32_t declared_nodes = 0;
  std::vector<NodeKind> kinds;  // of the nodes declared so far

  while (next_line(cur, line)) {
    tokens = split_tokens(line);
    if (tokens[0] == "node") {
      if (tokens.size() < 3) return fail(cur.line, "node needs id and kind");
      std::uint32_t id = 0;
      if (!parse_u32(tokens[1], id) || id != declared_nodes)
        return fail(cur.line, "node ids must be dense and in order");
      NodeKind kind;
      if (tokens[2] == "l") kind = NodeKind::kLocal;
      else if (tokens[2] == "g") kind = NodeKind::kGlobal;
      else if (tokens[2] == "o") kind = NodeKind::kObject;
      else return fail(cur.line, "node kind must be l, g or o");

      TypeId type;
      MethodId method;
      bool app = true;
      std::string name;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        std::uint32_t v = 0;
        if (auto s = keyed(tokens[i], "type"); s && parse_u32(*s, v)) type = TypeId(v);
        else if (auto s2 = keyed(tokens[i], "method"); s2 && parse_u32(*s2, v))
          method = MethodId(v);
        else if (auto s3 = keyed(tokens[i], "app"); s3 && parse_u32(*s3, v)) app = v != 0;
        else if (auto s4 = keyed(tokens[i], "name")) name = std::string(*s4);
        else return fail(cur.line, "bad node attribute");
      }
      const NodeId n = builder.add_node(kind, type, method, app);
      kinds.push_back(kind);
      if (!name.empty()) builder.set_name(n, std::move(name));
      ++declared_nodes;
    } else if (tokens[0] == "edge") {
      if (tokens.size() < 4) return fail(cur.line, "edge needs kind, dst, src");
      std::uint32_t dst = 0, src = 0;
      if (!parse_u32(tokens[2], dst) || !parse_u32(tokens[3], src) ||
          dst >= declared_nodes || src >= declared_nodes)
        return fail(cur.line, "edge endpoints must be declared node ids");

      EdgeKind kind;
      bool wants_field = false, wants_cs = false;
      if (tokens[1] == "new") kind = EdgeKind::kNew;
      else if (tokens[1] == "assignl") kind = EdgeKind::kAssignLocal;
      else if (tokens[1] == "assigng") kind = EdgeKind::kAssignGlobal;
      else if (tokens[1] == "ld") { kind = EdgeKind::kLoad; wants_field = true; }
      else if (tokens[1] == "st") { kind = EdgeKind::kStore; wants_field = true; }
      else if (tokens[1] == "param") { kind = EdgeKind::kParam; wants_cs = true; }
      else if (tokens[1] == "ret") { kind = EdgeKind::kRet; wants_cs = true; }
      else return fail(cur.line, "unknown edge kind");

      std::uint32_t aux = 0;
      if (wants_field || wants_cs) {
        if (tokens.size() < 5) return fail(cur.line, "edge missing f=/cs= payload");
        auto payload = keyed(tokens[4], wants_field ? "f" : "cs");
        if (!payload || !parse_u32(*payload, aux))
          return fail(cur.line, "bad edge payload");
      }
      if (const char* msg =
              edge_violation(kind, kinds[dst], kinds[src], aux, fields, callsites))
        return fail(cur.line, msg);
      builder.add_edge(kind, NodeId(dst), NodeId(src), aux);
    } else {
      return fail(cur.line, "unknown directive");
    }
  }

  if (declared_nodes != nodes)
    return fail(cur.line, "node count does not match counts line");
  return std::move(builder).finalize();
}

std::optional<Pag> read_pag(std::istream& is, std::string* error) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  return read_pag_string(text, error);
}

}  // namespace parcfl::pag
