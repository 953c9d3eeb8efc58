#pragma once
// Serving-path Andersen prefilter (DESIGN.md §11): the inclusion-based
// analysis of andersen.hpp re-represented over fixed-stride bitset rows so
// the whole-program solve is word-parallel and the per-query probe is O(1)
// or O(words).
//
// The CFL solver's context-sensitive points-to relation is a subset of
// Andersen's context-insensitive one, so the prefilter supports two definite
// answers without invoking the solver:
//
//   pts_empty(v)   — Andersen pts(v) = ∅   ⇒ the CFL points-to set is empty;
//   no_alias(a,b)  — Andersen pts(a) ∩ pts(b) = ∅ ⇒ alias(a,b) is impossible.
//
// Non-empty probes prove nothing and must fall through to the solver.
//
// build_incremental seeds rows from a previous result when the new graph
// extends the old one add-only (node ids are stable and Andersen is
// monotone in edges), which converges much faster than a cold solve after
// small deltas.

#include <cstdint>
#include <memory>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::andersen {

struct PrefilterStats {
  std::uint32_t objects = 0;        // dense object universe
  std::uint32_t words_per_row = 0;  // stride (multiple of 8)
  std::uint32_t heap_cells = 0;
  std::uint64_t union_ops = 0;      // row-union kernel invocations
  std::uint64_t worklist_pops = 0;
  std::uint64_t empty_vars = 0;     // variables with empty pts at fixpoint
  bool incremental = false;
  double solve_seconds = 0.0;
};

class Prefilter {
 public:
  /// Solve the graph from scratch.
  static Prefilter build(const pag::Pag& pag);

  /// Solve `pag` seeding variable rows from `base`. Only valid when `pag`
  /// extends `base`'s graph with added nodes/edges (no removals) — the
  /// caller checks that; when node counts or object universes shrink this
  /// falls back to a scratch solve.
  static Prefilter build_incremental(const pag::Pag& pag, const Prefilter& base);

  /// Revision of the graph this result was solved on.
  std::uint32_t revision() const { return revision_; }
  std::uint32_t node_count() const { return node_count_; }

  /// Definite answers (see file comment). Out-of-range ids report false —
  /// never claim emptiness for a node this result does not know about.
  bool pts_empty(pag::NodeId v) const;
  bool no_alias(pag::NodeId a, pag::NodeId b) const;

  /// Exact membership / cardinality probes (tests, stats).
  bool points_to(pag::NodeId v, pag::NodeId o) const;
  std::uint64_t pts_count(pag::NodeId v) const;

  const PrefilterStats& stats() const { return stats_; }
  std::size_t memory_bytes() const;

 private:
  friend class PrefilterSolver;

  const std::uint64_t* row(std::uint32_t v) const {
    return rows_.data() + static_cast<std::size_t>(v) * stride_;
  }

  std::vector<std::uint64_t> rows_;     // node_count_ rows of stride_ words
  std::vector<std::uint32_t> obj_dense_;  // node id -> dense object bit, or ~0
  std::vector<char> nonempty_;          // per node: any bit set (hot probe)
  std::uint32_t stride_ = 0;
  std::uint32_t node_count_ = 0;
  std::uint32_t object_count_ = 0;
  std::uint32_t revision_ = 0;
  PrefilterStats stats_;
};

}  // namespace parcfl::andersen
