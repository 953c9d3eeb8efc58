#pragma once
// Incremental PAG updates. The Pag itself stays immutable (the solver's
// lock-free reads depend on that); a program change is expressed as a Delta —
// a batch of node additions, edge additions and edge/node removals recorded
// against a specific base revision — and applied by building a *new* Pag from
// base + delta. The base graph is untouched by apply_delta, so readers holding
// spans into it stay valid until the owner swaps graphs (see
// service::Session::update for the swap protocol, and cfl/invalidate.hpp for
// keeping the warm jmp state sound across the swap).
//
// Conventions:
//  * Added nodes get ids starting at base_node_count(), in add order; node
//    ids are never reused, so requests validated against an old revision stay
//    valid after any number of updates.
//  * remove_node(n) is a tombstone: every edge incident to n is dropped but
//    the id remains as an isolated node (empty points-to set).
//  * remove_edge takes the exact edge record (kind, dst, src, aux); removing
//    an edge the base does not contain is an apply error, not UB.
//
// Text format (line-oriented, '#' comments, mirrors pag_io's .pag grammar):
//
//   parcfl-delta 1
//   node <l|g|o> [type=<t>] [method=<m>] [app=<0|1>]
//   add <kind> <dst> <src> [f=<field>|cs=<site>]
//   del <kind> <dst> <src> [f=<field>|cs=<site>]
//   delnode <id>

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::pag {

class Delta {
 public:
  /// A delta is recorded against a base graph's node-id space.
  explicit Delta(const Pag& base) : base_node_count_(base.node_count()) {}
  explicit Delta(std::uint32_t base_node_count)
      : base_node_count_(base_node_count) {}

  /// Returns the id the node will have after apply (base count + add order).
  NodeId add_node(NodeKind kind, TypeId type = TypeId::invalid(),
                  MethodId method = MethodId::invalid(),
                  bool is_application = true);

  void add_edge(EdgeKind kind, NodeId dst, NodeId src, std::uint32_t aux = 0) {
    added_edges_.push_back(Edge{kind, dst, src, aux});
  }
  void remove_edge(EdgeKind kind, NodeId dst, NodeId src,
                   std::uint32_t aux = 0) {
    removed_edges_.push_back(Edge{kind, dst, src, aux});
  }
  /// Tombstone: drops every edge incident to n (base or added edges alike).
  void remove_node(NodeId n) { removed_nodes_.push_back(n); }

  bool empty() const {
    return added_nodes_.empty() && added_edges_.empty() &&
           removed_edges_.empty() && removed_nodes_.empty();
  }

  std::uint32_t base_node_count() const { return base_node_count_; }
  std::span<const NodeInfo> added_nodes() const { return added_nodes_; }
  std::span<const Edge> added_edges() const { return added_edges_; }
  std::span<const Edge> removed_edges() const { return removed_edges_; }
  std::span<const NodeId> removed_nodes() const { return removed_nodes_; }

 private:
  std::uint32_t base_node_count_;
  std::vector<NodeInfo> added_nodes_;
  std::vector<Edge> added_edges_;
  std::vector<Edge> removed_edges_;
  std::vector<NodeId> removed_nodes_;
};

struct ApplyStats {
  std::uint32_t nodes_added = 0;
  std::uint32_t edges_added = 0;
  std::uint32_t edges_removed = 0;  // includes removed-node incident edges
};

/// Build base + delta as a fresh graph. The result's revision() is
/// base.revision() + 1. Returns std::nullopt and fills *error when the delta
/// is inconsistent with the base (unknown node id, removal of an edge the
/// graph does not contain, delta recorded against a different node count).
/// Removals are applied after additions, so a delta may add and then remove
/// within one batch; duplicate added edges collapse under the base's dedupe.
std::optional<Pag> apply_delta(const Pag& base, const Delta& delta,
                               ApplyStats* stats = nullptr,
                               std::string* error = nullptr);

/// Parse the text format above. Node and edge references are bounds-checked
/// against base + the nodes the delta itself adds, and every edge line must
/// pass pag::edge_violation against the base's field and call-site counts;
/// parsing is total (any input yields a Delta or a line-numbered error
/// message, never UB).
std::optional<Delta> read_delta(std::istream& is, const Pag& base,
                                std::string* error = nullptr);

/// Serialise d in the text format read_delta accepts.
void write_delta(std::ostream& os, const Delta& d);

}  // namespace parcfl::pag
