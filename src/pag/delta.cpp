#include "pag/delta.hpp"

#include <charconv>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "pag/validate.hpp"
#include "support/check.hpp"

namespace parcfl::pag {

NodeId Delta::add_node(NodeKind kind, TypeId type, MethodId method,
                       bool is_application) {
  NodeInfo info;
  info.kind = kind;
  info.type = type;
  info.method = method;
  info.is_application = is_application;
  added_nodes_.push_back(info);
  return NodeId(base_node_count_ +
                static_cast<std::uint32_t>(added_nodes_.size() - 1));
}

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Pack an edge record into one 64-bit key for the removal multiset. kind and
/// aux share the high bits with the endpoints mixed below; exact equality is
/// what matters, not distribution, but hash_mix happens downstream anyway.
struct EdgeKey {
  std::uint64_t hi, lo;
  bool operator==(const EdgeKey&) const = default;
};
struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& k) const {
    auto mix = [](std::uint64_t z) {
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    return static_cast<std::size_t>(mix(k.hi) ^ mix(k.lo + 0x9e3779b9ULL));
  }
};

EdgeKey edge_key(const Edge& e) {
  return EdgeKey{(static_cast<std::uint64_t>(e.kind) << 32) | e.aux,
                 (static_cast<std::uint64_t>(e.dst.value()) << 32) |
                     e.src.value()};
}

bool edge_aux_ok(const Edge& e) {
  switch (e.kind) {
    case EdgeKind::kLoad:
    case EdgeKind::kStore:
    case EdgeKind::kParam:
    case EdgeKind::kRet:
      return true;
    default:
      return e.aux == 0;
  }
}

}  // namespace

std::optional<Pag> apply_delta(const Pag& base, const Delta& delta,
                               ApplyStats* stats, std::string* error) {
  auto reject = [&](const std::string& msg) -> std::optional<Pag> {
    fail(error, msg);
    return std::nullopt;
  };
  if (delta.base_node_count() != base.node_count())
    return reject("delta was recorded against a different node count (" +
                  std::to_string(delta.base_node_count()) + " vs " +
                  std::to_string(base.node_count()) + ")");

  const std::uint64_t total_nodes =
      static_cast<std::uint64_t>(base.node_count()) + delta.added_nodes().size();

  std::vector<bool> tombstoned(total_nodes, false);
  for (const NodeId n : delta.removed_nodes()) {
    if (!n.valid() || n.value() >= total_nodes)
      return reject("delnode id out of range");
    tombstoned[n.value()] = true;
  }

  // Removal multiset: each requested removal must consume at least one edge
  // occurrence (base or added); removals subsumed by a delnode are fine.
  std::unordered_map<EdgeKey, std::uint32_t, EdgeKeyHash> removals;
  for (const Edge& e : delta.removed_edges()) {
    if (!e.dst.valid() || !e.src.valid() || e.dst.value() >= total_nodes ||
        e.src.value() >= total_nodes)
      return reject("del edge endpoint out of range");
    ++removals[edge_key(e)];
  }
  std::unordered_map<EdgeKey, std::uint32_t, EdgeKeyHash> consumed;

  Pag::Builder builder;
  // Counts are upper bounds; keep the base's id spaces as floors so removing
  // the highest field/site does not shrink (and thus re-key) anything.
  builder.set_counts(base.field_count(), base.call_site_count(),
                     base.type_count(), base.method_count());

  for (std::uint32_t i = 0; i < base.node_count(); ++i) {
    const NodeId n(i);
    const NodeInfo& info = base.node(n);
    const NodeId fresh =
        builder.add_node(info.kind, info.type, info.method, info.is_application);
    PARCFL_DCHECK(fresh == n);
    if (!base.name(n).empty()) builder.set_name(fresh, base.name(n));
  }
  for (const NodeInfo& info : delta.added_nodes())
    builder.add_node(info.kind, info.type, info.method, info.is_application);

  ApplyStats out;
  out.nodes_added = static_cast<std::uint32_t>(delta.added_nodes().size());

  auto keep_edge = [&](const Edge& e) -> bool {
    // Check the explicit removals before tombstones so a `del` that is also
    // subsumed by a `delnode` still counts as consumed (not an apply error).
    const auto it = removals.find(edge_key(e));
    if (it != removals.end()) {
      ++consumed[it->first];
      ++out.edges_removed;
      return false;
    }
    if (tombstoned[e.dst.value()] || tombstoned[e.src.value()]) {
      ++out.edges_removed;
      return false;
    }
    return true;
  };

  for (const Edge& e : base.edges())
    if (keep_edge(e)) builder.add_edge(e.kind, e.dst, e.src, e.aux);
  for (const Edge& e : delta.added_edges()) {
    if (!e.dst.valid() || !e.src.valid() || e.dst.value() >= total_nodes ||
        e.src.value() >= total_nodes)
      return reject("add edge endpoint out of range");
    if (!edge_aux_ok(e))
      return reject("add edge aux payload only valid on ld/st/param/ret");
    if (!keep_edge(e)) continue;
    builder.add_edge(e.kind, e.dst, e.src, e.aux);
    ++out.edges_added;
  }

  for (const auto& [key, count] : removals) {
    if (consumed.find(key) == consumed.end())
      return reject("del edge not present in the graph");
    (void)count;
  }

  builder.set_revision(base.revision() + 1);
  if (stats != nullptr) *stats = out;
  return std::move(builder).finalize();
}

namespace {

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

std::optional<std::string_view> keyed(std::string_view token, std::string_view key) {
  if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
      token[key.size()] == '=')
    return token.substr(key.size() + 1);
  return std::nullopt;
}

bool parse_edge_kind(std::string_view token, EdgeKind& kind, bool& wants_field,
                     bool& wants_cs) {
  wants_field = wants_cs = false;
  if (token == "new") kind = EdgeKind::kNew;
  else if (token == "assignl") kind = EdgeKind::kAssignLocal;
  else if (token == "assigng") kind = EdgeKind::kAssignGlobal;
  else if (token == "ld") { kind = EdgeKind::kLoad; wants_field = true; }
  else if (token == "st") { kind = EdgeKind::kStore; wants_field = true; }
  else if (token == "param") { kind = EdgeKind::kParam; wants_cs = true; }
  else if (token == "ret") { kind = EdgeKind::kRet; wants_cs = true; }
  else return false;
  return true;
}

}  // namespace

std::optional<Delta> read_delta(std::istream& is, const Pag& base,
                                std::string* error) {
  int line_no = 0;
  auto reject = [&](const std::string& msg) -> std::optional<Delta> {
    std::ostringstream os;
    os << "line " << line_no << ": " << msg;
    fail(error, os.str());
    return std::nullopt;
  };

  std::string raw;
  auto next_line = [&](std::string_view& out) -> bool {
    while (std::getline(is, raw)) {
      ++line_no;
      std::string_view line = raw;
      while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
        line.remove_prefix(1);
      while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                               line.back() == '\r'))
        line.remove_suffix(1);
      if (line.empty() || line.front() == '#') continue;
      out = line;
      return true;
    }
    return false;
  };

  std::string_view line;
  if (!next_line(line) ||
      split_tokens(line) != std::vector<std::string_view>{"parcfl-delta", "1"})
    return reject("expected header 'parcfl-delta 1'");

  Delta delta(base);
  std::uint64_t known_nodes = base.node_count();

  while (next_line(line)) {
    const auto tokens = split_tokens(line);
    if (tokens[0] == "node") {
      if (tokens.size() < 2) return reject("node needs a kind");
      NodeKind kind;
      if (tokens[1] == "l") kind = NodeKind::kLocal;
      else if (tokens[1] == "g") kind = NodeKind::kGlobal;
      else if (tokens[1] == "o") kind = NodeKind::kObject;
      else return reject("node kind must be l, g or o");
      TypeId type;
      MethodId method;
      bool app = true;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::uint32_t v = 0;
        if (auto s = keyed(tokens[i], "type"); s && parse_u32(*s, v)) type = TypeId(v);
        else if (auto s2 = keyed(tokens[i], "method"); s2 && parse_u32(*s2, v))
          method = MethodId(v);
        else if (auto s3 = keyed(tokens[i], "app"); s3 && parse_u32(*s3, v)) app = v != 0;
        else return reject("bad node attribute");
      }
      delta.add_node(kind, type, method, app);
      ++known_nodes;
    } else if (tokens[0] == "add" || tokens[0] == "del") {
      if (tokens.size() < 4) return reject("edge needs kind, dst, src");
      EdgeKind kind;
      bool wants_field = false, wants_cs = false;
      if (!parse_edge_kind(tokens[1], kind, wants_field, wants_cs))
        return reject("unknown edge kind");
      std::uint32_t dst = 0, src = 0;
      if (!parse_u32(tokens[2], dst) || !parse_u32(tokens[3], src) ||
          dst >= known_nodes || src >= known_nodes)
        return reject("edge endpoints must be known node ids");
      std::uint32_t aux = 0;
      if (wants_field || wants_cs) {
        if (tokens.size() < 5) return reject("edge missing f=/cs= payload");
        auto payload = keyed(tokens[4], wants_field ? "f" : "cs");
        if (!payload || !parse_u32(*payload, aux))
          return reject("bad edge payload");
      } else if (tokens.size() > 4) {
        return reject("unexpected edge payload");
      }
      // Edges obey the base graph's rules; a delta declares no new field or
      // call-site ids.
      auto node_kind = [&](std::uint32_t n) {
        return n < base.node_count()
                   ? base.kind(NodeId(n))
                   : delta.added_nodes()[n - base.node_count()].kind;
      };
      if (const char* msg =
              edge_violation(kind, node_kind(dst), node_kind(src), aux,
                             base.field_count(), base.call_site_count()))
        return reject(msg);
      if (tokens[0] == "add")
        delta.add_edge(kind, NodeId(dst), NodeId(src), aux);
      else
        delta.remove_edge(kind, NodeId(dst), NodeId(src), aux);
    } else if (tokens[0] == "delnode") {
      std::uint32_t id = 0;
      if (tokens.size() != 2 || !parse_u32(tokens[1], id) || id >= known_nodes)
        return reject("delnode needs a known node id");
      delta.remove_node(NodeId(id));
    } else {
      return reject("unknown directive");
    }
  }
  return delta;
}

void write_delta(std::ostream& os, const Delta& d) {
  os << "parcfl-delta 1\n";
  auto kind_token = [](NodeKind k) {
    switch (k) {
      case NodeKind::kLocal: return "l";
      case NodeKind::kGlobal: return "g";
      case NodeKind::kObject: return "o";
    }
    return "?";
  };
  for (const NodeInfo& info : d.added_nodes()) {
    os << "node " << kind_token(info.kind);
    if (info.type.valid()) os << " type=" << info.type.value();
    if (info.method.valid()) os << " method=" << info.method.value();
    os << " app=" << (info.is_application ? 1 : 0) << "\n";
  }
  auto write_edge = [&](const char* verb, const Edge& e) {
    os << verb << ' ' << to_string(e.kind) << ' ' << e.dst.value() << ' '
       << e.src.value();
    if (e.kind == EdgeKind::kLoad || e.kind == EdgeKind::kStore)
      os << " f=" << e.aux;
    else if (e.kind == EdgeKind::kParam || e.kind == EdgeKind::kRet)
      os << " cs=" << e.aux;
    os << "\n";
  };
  for (const Edge& e : d.added_edges()) write_edge("add", e);
  for (const Edge& e : d.removed_edges()) write_edge("del", e);
  for (const NodeId n : d.removed_nodes()) os << "delnode " << n.value() << "\n";
}

}  // namespace parcfl::pag
