#pragma once
// The one traversal loop (DESIGN.md §15): Solver::walk<D, N>, the worklist
// walk behind all four query kinds. solver.cpp instantiates the pointer
// walks (points-to, flows-to); flow_kinds.cpp instantiates the taint and
// depends walks. Keeping the flow kinds in their own translation unit keeps
// their code from competing with the pointer path for the compiler's
// per-unit inlining budget: instantiated beside it, they left the pointer
// walks' adjacency and worklist helpers out of line (EXPERIMENTS.md).
//
// Include only from those two files.

#include "cfl/solver.hpp"

namespace parcfl::cfl {

template <Direction D, Solver::OnNew N>
const Solver::ResultSet& Solver::walk(pag::NodeId root, CtxId rc) {
  using pag::EdgeKind;
  using pag::HalfEdge;
  using pag::NodeId;
  constexpr bool backward = D == Direction::kBackward;
  const Key key = make_key(root, rc);
  MemoEntry& entry = memo_entry(memo_for(D, N), key);
  if (entry.state == MemoEntry::State::kDone) {
    taint_flag_ = taint_flag_ || entry.tainted;
    return entry.set;
  }
  if (entry.state == MemoEntry::State::kInProgress) {
    taint_flag_ = true;  // cycle: the caller sees a partial set
    return entry.set;
  }

  entry.state = MemoEntry::State::kInProgress;
  if (++recursion_depth_ > options_.max_recursion_depth)
    out_of_budget(0, /*early=*/false);
  if (trace_ != nullptr && recursion_depth_ > depth_high_water_)
    depth_high_water_ = recursion_depth_;
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  // Witnesses are recorded for the root (depth-1) points-to computation only:
  // the chain from the query variable to an allocation lives entirely inside
  // it (heap matches appear as single annotated hops).
  const bool record =
      N == OnNew::kRecord && recording_witness_ && recursion_depth_ == 1;

  Frame& frame = frame_at(recursion_depth_);
  std::vector<PtPair>& work = frame.work;
  support::FlatSet& visited = frame.visited;
  work.clear();
  visited.clear();
  auto push = [&](NodeId n, CtxId cc, const PtPair& from, Via via) {
    if (!visited.insert(make_key(n, cc))) return;
    work.push_back(PtPair{n, cc});
    if (record) {
      const auto pred = witness_pred_.try_emplace(make_key(n, cc));
      if (pred.inserted)
        pred.value = WitnessPred{make_key(from.node, from.ctx), via};
    }
  };
  // Backward walks follow incoming edges (flowsTo̅), forward walks outgoing
  // ones (flowsTo).
  auto edges = [&](NodeId u, EdgeKind kind) {
    return backward ? pag_->in_edges(u, kind) : pag_->out_edges(u, kind);
  };
  push(root, rc, PtPair{root, rc}, Via::kQueryRoot);

  while (!work.empty()) {
    const PtPair cur = work.back();
    work.pop_back();
    const NodeId u = cur.node;
    const CtxId cu = cur.ctx;
    step();

    if constexpr (N == OnNew::kRecord) {
      // flowsTo̅ terminals over incoming edges (Alg. 1 lines 7-15).
      for (const HalfEdge he : edges(u, EdgeKind::kNew)) {
        if (entry.set.add(he.other, cu)) grew_ = true;
        if (record) {
          const auto pred = witness_obj_.try_emplace(make_key(he.other, cu));
          if (pred.inserted)
            pred.value = WitnessPred{make_key(u, cu), Via::kNew};
        }
      }
    } else {
      // Every variable reached along the walk answers the query.
      if (pag_->is_variable(u)) {
        if (entry.set.add(u, cu)) grew_ = true;
      }
      if constexpr (N == OnNew::kPush) {
        for (const HalfEdge he : edges(u, EdgeKind::kNew))
          push(he.other, cu, cur, Via::kNew);
      }
    }
    for (const HalfEdge he : edges(u, EdgeKind::kAssignLocal))
      push(he.other, cu, cur, Via::kAssignLocal);
    for (const HalfEdge he : edges(u, EdgeKind::kAssignGlobal))
      push(he.other, ContextTable::empty(), cur, Via::kAssignGlobal);
    // Backward walks leave a callee over param and enter one over ret;
    // forward walks mirror that.
    for (const HalfEdge he : edges(u, EdgeKind::kParam)) {
      if (CtxId cc; cross_call(cu, he.aux, /*enter=*/!backward, cc))
        push(he.other, cc, cur, Via::kParam);
    }
    for (const HalfEdge he : edges(u, EdgeKind::kRet)) {
      if (CtxId cc; cross_call(cu, he.aux, /*enter=*/backward, cc))
        push(he.other, cc, cur, Via::kRet);
    }

    // Heap-paren group last. Its bodies issue pointer-semantics alias
    // sub-queries whatever the kind, so jmp keys are kind-independent.
    if (!options_.field_sensitive) continue;
    if constexpr (backward) {
      if (pag_->in_edges(u, EdgeKind::kLoad).empty()) continue;
    } else {
      if (!pag_->is_variable(u) || pag_->out_edges(u, EdgeKind::kStore).empty())
        continue;
    }
    ResultSet& rch = frame.rn_out;
    rch.reset();
    if constexpr (backward)
      reachable_nodes_backward(u, cu, rch);
    else
      reachable_nodes_forward(u, cu, rch);
    for (const PtPair& t : rch.items) push(t.node, t.ctx, cur, Via::kHeapMatch);
  }

  --recursion_depth_;
  entry.tainted = taint_flag_;
  entry.state = MemoEntry::State::kDone;
  taint_flag_ = outer_taint || entry.tainted;
  return entry.set;
}

}  // namespace parcfl::cfl
