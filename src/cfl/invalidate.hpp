#pragma once
// Sound eviction of shared jmp state across a PAG delta (DESIGN.md §8).
//
// A jmp entry keyed (dir, x, c) summarises one recorded ReachableNodes
// traversal. The traversal only ever moved along PAG edges — backward
// (PointsTo) walks follow in-edges, forward (FlowsTo) walks follow out-edges,
// and the heap match switches direction at loads/stores via the objects a
// base points to. An entry can therefore only be stale if a traversal from
// (x, dir) *could* reach an endpoint of a changed edge; everything outside
// that cone provably recorded the same targets it would record today.
//
// We over-approximate the cone with a two-state (node, direction) closure,
// seeded at every touched node and propagated in reverse over the union of
// the old and new edge sets (old covers removed edges a recorded walk may
// have crossed; new covers added edges a future re-walk may cross). marked
// (v, B) means "a backward walk from v could visit a touched node"; (v, F)
// the same for forward walks. An entry whose key node is marked in its
// direction loses its finished half. Its unfinished half is carried: an
// unfinished s can only make a walk stop early (kEarlyTermination), and the
// walk still runs on the new graph, so every answer it cuts short is a
// subset of the true one and every complete answer is exact (DESIGN.md §8).
// An entry is dropped whole if its key node lies beyond both graphs' node
// range, or its key context chain mentions a retired call site — one whose
// param/ret edges vanished entirely — as hygiene against call-site id reuse.
// (Target contexts need no separate check: a finished entry's targets were
// derived inside the key's cone, so a clean cone implies clean targets.)
//
// The ContextTable itself needs no surgery: context ids are never reused, so
// chains through vanished call sites become inert the moment the entries
// referencing them are dropped.

#include <cstdint>
#include <string>
#include <vector>

#include "cfl/context.hpp"
#include "cfl/jmp_store.hpp"
#include "pag/delta.hpp"
#include "pag/pag.hpp"

namespace parcfl::cfl {

struct InvalidateOptions {
  /// Must match the solver's SolverOptions::field_approximation. Under field
  /// approximation the heap match pairs loads and stores on the same field
  /// regardless of aliasing, so a changed load/store couples every other
  /// access of that field into the affected cone.
  bool field_approximation = false;
};

/// entries_before == evicted + carried_unfinished + kept.
struct InvalidateStats {
  std::uint64_t entries_before = 0;
  std::uint64_t evicted = 0;             // entries dropped whole
  std::uint64_t carried_unfinished = 0;  // marked, kept for their unfinished s
  std::uint64_t kept = 0;                // unmarked, kept whole
  std::uint32_t touched_nodes = 0;     // closure seeds
  std::uint32_t marked_backward = 0;   // nodes whose backward cone is dirty
  std::uint32_t marked_forward = 0;
  std::uint32_t retired_call_sites = 0;
};

/// Drop the finished half of every jmp entry whose recorded traversal could
/// have crossed an edge changed by `delta` (applied to `old_pag`, yielding
/// `new_pag`), carrying its unfinished half; entries outside the cone survive
/// whole. Call with both graphs alive and no solver mid-query; the
/// ContextTable is read but never modified.
/// When `backward_cone` is non-null it receives the cone's backward plane:
/// one byte per node id below max(old, new) node count, non-zero iff a
/// backward walk from that node could reach a touched node — exactly the
/// roots whose finished context-empty PointsTo answers this call evicts.
InvalidateStats invalidate_sharing_state(
    const pag::Pag& old_pag, const pag::Pag& new_pag, const pag::Delta& delta,
    const ContextTable& contexts, JmpStore& store,
    const InvalidateOptions& options = {},
    std::vector<std::uint8_t>* backward_cone = nullptr);

}  // namespace parcfl::cfl
