#pragma once
// Pointer Assignment Graph (PAG) — the program representation of the paper's
// Fig. 1. Nodes are variables (local/global) or abstract objects (allocation
// sites); edges are the seven statement kinds, oriented in the direction of
// value flow (dst <- src):
//
//   new          l  <- o        allocation (l points directly to o)
//   assign_l     l1 <- l2       local assignment l1 = l2
//   assign_g     g  <- v | v <- g   assignment involving a global
//   ld(f)        l1 <- l2       load  l1 = l2.f
//   st(f)        l1 <- l2       store l1.f = l2
//   param_i      l1 <- l2       actual l2 passed to formal l1 at call site i
//   ret_i        l1 <- l2       return value l2 assigned to l1 at call site i
//
// The graph is immutable after Builder::finalize(); the demand solver only
// reads it. jmp shortcut edges (Fig. 4) live in a separate concurrent store
// (see cfl/jmp_store.hpp), mirroring the paper's ConcurrentHashMap
// implementation choice (§IV-A).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/strong_id.hpp"

namespace parcfl::pag {

struct NodeTag {};
struct FieldTag {};
struct CallSiteTag {};
struct TypeTag {};
struct MethodTag {};

using NodeId = support::StrongId<NodeTag>;
using FieldId = support::StrongId<FieldTag>;
using CallSiteId = support::StrongId<CallSiteTag>;
using TypeId = support::StrongId<TypeTag>;
using MethodId = support::StrongId<MethodTag>;

enum class NodeKind : std::uint8_t { kLocal, kGlobal, kObject };

enum class EdgeKind : std::uint8_t {
  kNew,
  kAssignLocal,
  kAssignGlobal,
  kLoad,
  kStore,
  kParam,
  kRet,
};
constexpr unsigned kEdgeKindCount = 7;

const char* to_string(EdgeKind kind);
const char* to_string(NodeKind kind);

/// A full edge record (used for iteration, IO, validation, Andersen).
struct Edge {
  EdgeKind kind;
  NodeId dst;  // the l1 of Fig. 1
  NodeId src;  // the l2 / o of Fig. 1
  std::uint32_t aux = 0;  // FieldId for ld/st, CallSiteId for param/ret

  bool operator==(const Edge&) const = default;
};

/// One adjacency entry: the node on the far side plus the edge's aux payload.
struct HalfEdge {
  NodeId other;
  std::uint32_t aux;
};

/// Per-node metadata. Objects record the method containing their allocation
/// site; globals have no method.
struct NodeInfo {
  NodeKind kind = NodeKind::kLocal;
  bool is_application = true;  // app code vs. library (drives query extraction)
  TypeId type;                 // static type (drives the DD metric); may be invalid
  MethodId method;             // containing method; invalid for globals
};

/// Immutable PAG. Adjacency is stored as one CSR per (direction, edge kind):
/// in_edges(v, k)  = edges with dst == v of kind k (HalfEdge.other == src),
/// out_edges(v, k) = edges with src == v of kind k (HalfEdge.other == dst).
/// Additionally, stores are indexed by field for the ReachableNodes match
/// (load x = p.f against every store q.f = y, paper Alg. 1 lines 18-19).
class Pag {
 public:
  class Builder;

  std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }
  std::uint32_t edge_count() const { return static_cast<std::uint32_t>(edges_.size()); }
  std::uint32_t field_count() const { return field_count_; }
  std::uint32_t call_site_count() const { return call_site_count_; }
  std::uint32_t type_count() const { return type_count_; }
  std::uint32_t method_count() const { return method_count_; }

  const NodeInfo& node(NodeId n) const { return nodes_[n.value()]; }
  /// All node records, indexed by id.
  std::span<const NodeInfo> nodes() const { return nodes_; }
  NodeKind kind(NodeId n) const { return nodes_[n.value()].kind; }
  bool is_object(NodeId n) const { return kind(n) == NodeKind::kObject; }
  bool is_variable(NodeId n) const { return kind(n) != NodeKind::kObject; }

  /// All edges, in insertion order.
  std::span<const Edge> edges() const { return edges_; }

  /// Edges of kind k whose dst is v.
  std::span<const HalfEdge> in_edges(NodeId v, EdgeKind k) const {
    return adjacency(in_[static_cast<unsigned>(k)], v);
  }
  /// Edges of kind k whose src is v.
  std::span<const HalfEdge> out_edges(NodeId v, EdgeKind k) const {
    return adjacency(out_[static_cast<unsigned>(k)], v);
  }

  /// All stores q.f = y on field f, as HalfEdge{other = base q, aux = rhs y}.
  std::span<const HalfEdge> stores_on_field(FieldId f) const {
    return adjacency_raw(stores_by_field_, f.value());
  }
  /// All loads x = p.f on field f, as HalfEdge{other = base p, aux = dst x}.
  std::span<const HalfEdge> loads_on_field(FieldId f) const {
    return adjacency_raw(loads_by_field_, f.value());
  }

  std::uint32_t edge_count_of_kind(EdgeKind k) const {
    return kind_counts_[static_cast<unsigned>(k)];
  }

  /// Delta epoch: 0 for a freshly built graph, incremented by each
  /// pag::apply_delta. Persisted sharing state records the revision it was
  /// computed at (the v3 header, cfl/persist.hpp).
  std::uint32_t revision() const { return revision_; }

  /// Optional display name (empty when not recorded).
  const std::string& name(NodeId n) const;
  void set_name(NodeId n, std::string name);

  /// Approximate heap footprint of the graph structure (for §IV-D5).
  std::size_t memory_bytes() const;

 private:
  struct Csr {
    std::vector<std::uint32_t> offsets;  // node_count + 1
    std::vector<HalfEdge> entries;
  };

  std::span<const HalfEdge> adjacency(const Csr& csr, NodeId v) const {
    return adjacency_raw(csr, v.value());
  }
  std::span<const HalfEdge> adjacency_raw(const Csr& csr, std::uint32_t v) const {
    if (v + 1 >= csr.offsets.size()) return {};
    return {csr.entries.data() + csr.offsets[v], csr.entries.data() + csr.offsets[v + 1]};
  }

  std::vector<NodeInfo> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::string> names_;  // empty unless names recorded
  Csr in_[kEdgeKindCount];
  Csr out_[kEdgeKindCount];
  Csr stores_by_field_;
  Csr loads_by_field_;
  std::uint32_t kind_counts_[kEdgeKindCount] = {};
  std::uint32_t field_count_ = 0;
  std::uint32_t call_site_count_ = 0;
  std::uint32_t type_count_ = 0;
  std::uint32_t method_count_ = 0;
  std::uint32_t revision_ = 0;
};

/// Accumulates nodes and edges, then freezes them into CSR form.
class Pag::Builder {
 public:
  NodeId add_node(NodeKind kind, TypeId type = TypeId::invalid(),
                  MethodId method = MethodId::invalid(), bool is_application = true);

  NodeId add_local(TypeId type, MethodId method, bool is_application = true) {
    return add_node(NodeKind::kLocal, type, method, is_application);
  }
  NodeId add_global(TypeId type, bool is_application = true) {
    return add_node(NodeKind::kGlobal, type, MethodId::invalid(), is_application);
  }
  NodeId add_object(TypeId type, MethodId method, bool is_application = true) {
    return add_node(NodeKind::kObject, type, method, is_application);
  }

  /// dst <- src with Fig. 1 orientation. aux is the field id for ld/st and the
  /// call-site id for param/ret; it must be 0 for other kinds.
  void add_edge(EdgeKind kind, NodeId dst, NodeId src, std::uint32_t aux = 0);

  void new_edge(NodeId l, NodeId o) { add_edge(EdgeKind::kNew, l, o); }
  void assign_local(NodeId dst, NodeId src) { add_edge(EdgeKind::kAssignLocal, dst, src); }
  void assign_global(NodeId dst, NodeId src) { add_edge(EdgeKind::kAssignGlobal, dst, src); }
  void load(NodeId dst, NodeId base, FieldId f) {
    add_edge(EdgeKind::kLoad, dst, base, f.value());
  }
  void store(NodeId base, NodeId src, FieldId f) {
    add_edge(EdgeKind::kStore, base, src, f.value());
  }
  void param(NodeId formal, NodeId actual, CallSiteId cs) {
    add_edge(EdgeKind::kParam, formal, actual, cs.value());
  }
  void ret(NodeId receiver, NodeId retval, CallSiteId cs) {
    add_edge(EdgeKind::kRet, receiver, retval, cs.value());
  }

  void set_name(NodeId n, std::string name);

  /// Declare id-space sizes (ids used in edges must stay below these; when
  /// left at 0 they are inferred as max-used + 1).
  void set_counts(std::uint32_t fields, std::uint32_t call_sites,
                  std::uint32_t types, std::uint32_t methods);

  /// Drop exact duplicate edges during finalize (defaults to true: duplicates
  /// carry no extra information and only inflate traversal work).
  void set_dedupe(bool dedupe) { dedupe_ = dedupe; }

  /// Delta epoch of the finalized graph (pag::apply_delta sets base + 1;
  /// frontends leave it at 0).
  void set_revision(std::uint32_t revision) { revision_ = revision; }

  /// Run the parenthesis reduction (pag/reduce.hpp) on the edge list during
  /// finalize, before CSR construction. Node ids are preserved; only edges
  /// that can never lie on a complete flowsTo derivation are dropped.
  /// Defaults to off: frontends and IO build faithful graphs, the serving
  /// path opts in.
  void set_reduce(bool reduce) { reduce_ = reduce; }

  std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }

  /// Freeze into an immutable Pag. The builder is consumed.
  Pag finalize() &&;

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::string> names_;
  bool has_names_ = false;
  bool dedupe_ = true;
  bool reduce_ = false;
  std::uint32_t revision_ = 0;
  std::uint32_t field_count_ = 0;
  std::uint32_t call_site_count_ = 0;
  std::uint32_t type_count_ = 0;
  std::uint32_t method_count_ = 0;
};

}  // namespace parcfl::pag
