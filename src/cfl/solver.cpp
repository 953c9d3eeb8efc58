#include "cfl/solver.hpp"

#include <algorithm>

#include "cfl/walk.hpp"
#include "support/check.hpp"

namespace parcfl::cfl {

using pag::EdgeKind;
using pag::HalfEdge;
using pag::NodeId;

// The taint/depends walks are instantiated in flow_kinds.cpp (see walk.hpp).
extern template const Solver::ResultSet&
Solver::walk<Direction::kForward, Solver::OnNew::kSkip>(NodeId, CtxId);
extern template const Solver::ResultSet&
Solver::walk<Direction::kBackward, Solver::OnNew::kSkip>(NodeId, CtxId);

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointsTo:
      return "points-to";
    case QueryKind::kTaint:
      return "taint";
    case QueryKind::kDepends:
      return "depends";
  }
  return "?";
}

std::vector<NodeId> QueryResult::nodes() const {
  std::vector<NodeId> out;
  nodes_into(out);
  return out;
}

void QueryResult::nodes_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(tuples.size());
  for (const PtPair& t : tuples) out.push_back(t.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool QueryResult::contains(NodeId n) const {
  for (const PtPair& t : tuples)
    if (t.node == n) return true;
  return false;
}

Solver::Solver(const pag::Pag& pag, ContextTable& contexts, JmpStore* store,
               const SolverOptions& options)
    : pag_(&pag), contexts_(contexts), store_(store), options_(options),
      budget_limit_(options.budget) {
  if (options_.data_sharing)
    PARCFL_CHECK_MSG(store_ != nullptr, "data sharing requires a JmpStore");
}

QueryResult Solver::points_to(NodeId l) {
  QueryResult out;
  points_to(l, out);
  return out;
}

QueryResult Solver::flows_to(NodeId o) {
  QueryResult out;
  flows_to(o, out);
  return out;
}

void Solver::points_to(NodeId l, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_->is_variable(l), "points_to takes a variable node");
  run_query(Direction::kBackward, OnNew::kRecord, l, out);
}

void Solver::flows_to(NodeId o, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_->is_object(o), "flows_to takes an object node");
  run_query(Direction::kForward, OnNew::kPush, o, out);
}

const char* Solver::to_string(Via via) {
  switch (via) {
    case Via::kQueryRoot: return "query";
    case Via::kNew: return "new";
    case Via::kAssignLocal: return "assign";
    case Via::kAssignGlobal: return "global";
    case Via::kParam: return "param";
    case Via::kRet: return "ret";
    case Via::kHeapMatch: return "heap-match";
  }
  return "?";
}

Solver::Frame& Solver::frame_at(std::uint32_t depth) {
  while (frames_.size() <= depth) frames_.push_back(std::make_unique<Frame>());
  return *frames_[depth];
}

Solver::MemoEntry& Solver::memo_entry(support::FlatMap<std::uint32_t>& memo,
                                      Key key) {
  const auto slot = memo.try_emplace(key);
  if (!slot.inserted) return memo_slab_[slot.value];
  const auto [index, entry] = memo_slab_.acquire();
  entry->reset();  // recycled entries keep their buffers, not their contents
  slot.value = index;
  return *entry;
}

Solver::PendingJmp& Solver::pending_for(std::uint64_t jmp_key) {
  const auto slot = pending_map_.try_emplace(jmp_key);
  if (slot.inserted) {
    const auto [index, pending] = pending_slab_.acquire();
    slot.value = index;
    pending->key = jmp_key;
    pending->max_cost = 0;
    pending->iteration = 0;
    pending->published = false;
    pending->targets.clear();
    return *pending;
  }
  PendingJmp& pending = pending_slab_[slot.value];
  if (pending.published) {
    // The entry was "erased" on publication; recreate it fresh.
    pending.max_cost = 0;
    pending.iteration = 0;
    pending.published = false;
    pending.targets.clear();
  }
  return pending;
}

Solver::MemoryStats Solver::memory_stats() const {
  MemoryStats m;
  m.table_rehashes = pts_memo_.rehash_count() + flows_memo_.rehash_count() +
                     slice_memo_.rehash_count() + pending_map_.rehash_count() +
                     consumed_jmp_keys_.rehash_count() +
                     witness_pred_.rehash_count() + witness_obj_.rehash_count();
  memo_slab_.for_each_constructed([&](const MemoEntry& e) {
    m.table_rehashes += e.set.present.rehash_count();
    m.scratch_capacity_bytes += e.set.items.capacity() * sizeof(PtPair);
  });
  pending_slab_.for_each_constructed([&](const PendingJmp& p) {
    m.scratch_capacity_bytes += p.targets.capacity() * sizeof(JmpTarget);
  });
  for (const auto& frame : frames_) {
    m.table_rehashes += frame->visited.rehash_count() +
                        frame->rn_dedup.rehash_count() +
                        frame->rn_out.present.rehash_count();
    m.scratch_capacity_bytes +=
        frame->work.capacity() * sizeof(PtPair) +
        frame->rn_found.capacity() * sizeof(JmpTarget) +
        frame->rn_out.items.capacity() * sizeof(PtPair);
  }
  m.slab_objects = memo_slab_.constructed() + pending_slab_.constructed();
  m.slab_bytes = memo_slab_.arena_bytes() + pending_slab_.arena_bytes();
  m.frame_count = frames_.size();
  m.scratch_capacity_bytes += sharing_stack_.capacity() * sizeof(SharingFrame);
  m.scratch_capacity_bytes +=
      pub_finished_.capacity() * sizeof(BufferedFinished) +
      pub_unfinished_.capacity() * sizeof(BufferedUnfinished) +
      pub_targets_.capacity() * sizeof(JmpTarget);
  return m;
}

std::vector<Solver::WitnessStep> Solver::explain_points_to(NodeId var,
                                                           NodeId object) {
  witness_pred_.clear();
  witness_obj_.clear();
  recording_witness_ = true;
  QueryResult result;
  run_query(Direction::kBackward, OnNew::kRecord, var, result);
  recording_witness_ = false;
  (void)result;

  // The fact may have been discovered under any context: take the first.
  Key obj_key = 0;
  const WitnessPred* obj_pred = nullptr;
  witness_obj_.for_each([&](Key key, WitnessPred& pred) {
    if (obj_pred == nullptr &&
        static_cast<std::uint32_t>(key >> 32) == object.value()) {
      obj_key = key;
      obj_pred = &pred;
    }
  });
  if (obj_pred == nullptr) return {};

  // Walk the predecessor chain back to the query root, then reverse.
  std::vector<WitnessStep> chain;
  chain.push_back(WitnessStep{
      PtPair{object, CtxId(static_cast<std::uint32_t>(obj_key))}, Via::kNew});
  Key cur = obj_pred->from;
  for (;;) {
    const PtPair config{NodeId(static_cast<std::uint32_t>(cur >> 32)),
                        CtxId(static_cast<std::uint32_t>(cur))};
    const WitnessPred* pred = witness_pred_.find(cur);
    PARCFL_CHECK_MSG(pred != nullptr, "broken witness chain");
    chain.push_back(WitnessStep{config, pred->via});
    if (pred->via == Via::kQueryRoot) break;
    cur = pred->from;
  }
  std::reverse(chain.begin(), chain.end());
  witness_pred_.clear();
  witness_obj_.clear();
  return chain;
}

Solver::AliasAnswer Solver::may_alias(NodeId v1, NodeId v2) {
  const QueryResult r1 = points_to(v1);
  const QueryResult r2 = points_to(v2);
  const std::vector<NodeId> o1 = r1.nodes();
  const std::vector<NodeId> o2 = r2.nodes();
  std::vector<NodeId> common;
  std::set_intersection(o1.begin(), o1.end(), o2.begin(), o2.end(),
                        std::back_inserter(common));
  if (!common.empty()) return AliasAnswer::kMay;
  if (r1.complete() && r2.complete()) return AliasAnswer::kNo;
  return AliasAnswer::kUnknown;
}

void Solver::publish_finished(std::uint64_t jmp_key, std::uint64_t cost,
                              const JmpTarget* data, std::size_t n) {
  const auto cost32 =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cost, UINT32_MAX));
  if (trace_jmp_events())
    trace_->emit(obs::TraceEvent::kJmpPublishFinished, jmp_key, cost32);
  if (options_.batched_publication) {
    const auto begin = static_cast<std::uint32_t>(pub_targets_.size());
    pub_targets_.insert(pub_targets_.end(), data, data + n);
    pub_finished_.push_back(BufferedFinished{
        jmp_key, cost32, begin, static_cast<std::uint32_t>(pub_targets_.size())});
    return;
  }
  if (store_->insert_finished(jmp_key, cost32, {data, data + n}))
    counters_.jmps_added_finished += n;
}

void Solver::publish_unfinished(std::uint64_t jmp_key, std::uint32_t s) {
  if (trace_jmp_events())
    trace_->emit(obs::TraceEvent::kJmpPublishUnfinished, jmp_key, s);
  if (options_.batched_publication) {
    pub_unfinished_.push_back(BufferedUnfinished{jmp_key, s});
    return;
  }
  if (store_->insert_unfinished(jmp_key, s)) ++counters_.jmps_added_unfinished;
}

void Solver::flush_publications() {
  if (store_ == nullptr) return;
  for (const BufferedFinished& f : pub_finished_) {
    if (store_->insert_finished(
            f.key, f.cost,
            {pub_targets_.begin() + f.begin, pub_targets_.begin() + f.end}))
      counters_.jmps_added_finished += f.end - f.begin;
  }
  for (const BufferedUnfinished& u : pub_unfinished_) {
    if (store_->insert_unfinished(u.key, u.s)) ++counters_.jmps_added_unfinished;
  }
  pub_finished_.clear();
  pub_unfinished_.clear();
  pub_targets_.clear();
}

void Solver::out_of_budget(std::uint64_t bdg, bool early) {
  // Alg. 2 OUTOFBUDGET (lines 23-25): for every active ReachableNodes frame
  // (x, c) entered at s0 charged steps, the analysis reached the aborting
  // node in charged - s0 further steps, so a traversal arriving at (x, c)
  // with less than min(B, BDG + charged - s0) remaining budget is doomed.
  if (options_.data_sharing && store_ != nullptr) {
    for (const SharingFrame& frame : sharing_stack_) {
      const std::uint64_t s =
          std::min<std::uint64_t>(budget_limit_, bdg + charged_ - frame.s0);
      if (s >= options_.tau_unfinished) {
        publish_unfinished(frame.jmp_key, static_cast<std::uint32_t>(s));
      } else {
        ++counters_.jmps_suppressed;
      }
    }
  }
  throw OutOfBudgetEx{early};
}

template <class ComputeFn>
void Solver::reachable_nodes(Direction dir, NodeId x, CtxId c, ResultSet& out,
                             ComputeFn&& compute) {
  const bool sharing =
      options_.data_sharing && store_ != nullptr &&
      (dir == Direction::kBackward || options_.share_forward);

  std::uint64_t jmp_key = 0;
  if (sharing) {
    jmp_key = JmpStore::key(dir, x, c);
    ++counters_.jmp_lookups;
    JmpStore::Lookup lk;
    if (store_->lookup(jmp_key, lk)) {
      // Fig. 3(b): an unfinished jmp(s) warns that s more steps are needed
      // from here; terminate early if the remaining budget cannot cover it.
      if (lk.unfinished_s != 0 &&
          budget_limit_ - std::min(charged_, budget_limit_) < lk.unfinished_s) {
        ++counters_.early_terminations;
        if (trace_jmp_events())
          trace_->emit(obs::TraceEvent::kEarlyTermination, jmp_key,
                       lk.unfinished_s);
        // The recorded s proves this query would have exhausted its budget:
        // everything between here and B is traversal the jmp edge avoided.
        saved_ += budget_limit_ - std::min(charged_, budget_limit_);
        out_of_budget(lk.unfinished_s, /*early=*/true);
      }
      // Fig. 3(a): take the shortcuts. The full traversal cost is charged to
      // the budget (once per query — repeats against warm memos are free in
      // the unshared run too) but nothing is walked.
      if (lk.finished != nullptr) {
        if (consumed_jmp_keys_.insert(jmp_key)) {
          if (options_.charge_jmp_costs) charged_ += lk.finished->cost;
          saved_ += lk.finished->cost;
          ++counters_.jmps_taken;
        }
        if (trace_jmp_events())
          trace_->emit(obs::TraceEvent::kJmpHit, jmp_key, lk.finished->cost);
        for (const JmpTarget& t : lk.finished->targets) out.add(t.node, t.ctx);
        return;
      }
    }
    if (trace_jmp_events()) trace_->emit(obs::TraceEvent::kJmpMiss, jmp_key);
  }

  const std::uint64_t s0 = charged_;
  if (sharing) sharing_stack_.push_back(SharingFrame{jmp_key, s0});

  // Taint bookkeeping: we need to know whether *this* ReachableNodes body
  // consumed any partial (cyclic) result — only untainted, hence complete,
  // target sets may be published to the shared store.
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  // Pooled scratch: the one ReachableNodes active at this compute depth owns
  // the frame's rn_found / rn_dedup; nested sub-queries use deeper frames.
  Frame& frame = frame_at(recursion_depth_);
  std::vector<JmpTarget>& found = frame.rn_found;
  found.clear();
  frame.rn_dedup.clear();
  compute(found, frame.rn_dedup, s0);

  const bool rn_tainted = taint_flag_;
  taint_flag_ = rn_tainted || outer_taint;

  if (sharing) sharing_stack_.pop_back();

  for (const JmpTarget& t : found) out.add(t.node, t.ctx);

  if (sharing) {
    const std::uint64_t cost = charged_ - s0;
    if (!rn_tainted) {
      // Complete right now: publish immediately (Alg. 2 line 20). A warm
      // recompute may be cheap even though the cold first pass was not; keep
      // the max as the representative cost.
      std::uint64_t effective_cost = cost;
      if (std::uint32_t* pending_index = pending_map_.find(jmp_key)) {
        PendingJmp& pending = pending_slab_[*pending_index];
        if (!pending.published) {
          effective_cost =
              std::max<std::uint64_t>(effective_cost, pending.max_cost);
          pending.published = true;  // consumed: drop from deferred publication
        }
      }
      if (effective_cost >= options_.tau_finished) {
        publish_finished(jmp_key, effective_cost, found.data(), found.size());
      } else {
        ++counters_.jmps_suppressed;
      }
    } else {
      // Possibly partial: defer until the query's fixpoint converges.
      PendingJmp& pending = pending_for(jmp_key);
      pending.max_cost =
          std::max(pending.max_cost, static_cast<std::uint32_t>(
                                         std::min<std::uint64_t>(cost, UINT32_MAX)));
      pending.iteration = iteration_;
      pending.targets.assign(found.begin(), found.end());
    }
  }
}

void Solver::reachable_nodes_backward(NodeId x, CtxId c, ResultSet& out) {
  reachable_nodes(
      Direction::kBackward, x, c, out,
      [&](std::vector<JmpTarget>& found, support::FlatSet& dedup,
          std::uint64_t s0) {
        // Alg. 1 lines 17-25: match each load x = p.f against every store
        // q.f = y whose base q aliases p. alias(p) is computed as
        // FlowsTo(o, c0) for each (o, c0) in PointsTo(p, c); instead of
        // scanning all stores on f per alias candidate, we look up the
        // candidate's incoming store edges directly (same match set).
        for (const HalfEdge ld : pag_->in_edges(x, EdgeKind::kLoad)) {
          const NodeId p = ld.other;
          const std::uint32_t f = ld.aux;
          if (options_.field_approximation && !options_.refined_fields.contains(f)) {
            // Regular approximation: every store on f matches, no alias test.
            // Targets restart from the empty context (an over-approximation
            // consistent with partial balance).
            for (const HalfEdge st : pag_->stores_on_field(pag::FieldId(f))) {
              const NodeId y(st.aux);
              if (!dedup.insert(make_key(y, ContextTable::empty())))
                continue;
              found.push_back(JmpTarget{y, ContextTable::empty(),
                                        static_cast<std::uint32_t>(charged_ - s0)});
            }
            continue;
          }
          const ResultSet& pts = walk<Direction::kBackward, OnNew::kRecord>(p, c);
          for (std::size_t i = 0; i < pts.items.size(); ++i) {
            const PtPair oc = pts.items[i];
            const ResultSet& aliased =
                walk<Direction::kForward, OnNew::kPush>(oc.node, oc.ctx);
            for (std::size_t j = 0; j < aliased.items.size(); ++j) {
              const PtPair qc = aliased.items[j];
              for (const HalfEdge st : pag_->in_edges(qc.node, EdgeKind::kStore)) {
                if (st.aux != f) continue;
                const NodeId y = st.other;  // rhs of q.f = y
                if (!dedup.insert(make_key(y, qc.ctx))) continue;
                found.push_back(JmpTarget{
                    y, qc.ctx, static_cast<std::uint32_t>(charged_ - s0)});
              }
            }
          }
        }
      });
}

void Solver::reachable_nodes_forward(NodeId z, CtxId c, ResultSet& out) {
  reachable_nodes(
      Direction::kForward, z, c, out,
      [&](std::vector<JmpTarget>& found, support::FlatSet& dedup,
          std::uint64_t s0) {
        // Mirror image: a store q.f = z forwards z's value into o.f for each
        // object o pointed to by q; every load x = p'.f on an aliased base p'
        // then continues the flowsTo path at x.
        for (const HalfEdge st : pag_->out_edges(z, EdgeKind::kStore)) {
          const NodeId q = st.other;  // base of q.f = z
          const std::uint32_t f = st.aux;
          if (options_.field_approximation && !options_.refined_fields.contains(f)) {
            for (const HalfEdge ld : pag_->loads_on_field(pag::FieldId(f))) {
              const NodeId target(ld.aux);  // dst of x = p.f
              if (!dedup.insert(make_key(target, ContextTable::empty())))
                continue;
              found.push_back(JmpTarget{target, ContextTable::empty(),
                                        static_cast<std::uint32_t>(charged_ - s0)});
            }
            continue;
          }
          const ResultSet& pts = walk<Direction::kBackward, OnNew::kRecord>(q, c);
          for (std::size_t i = 0; i < pts.items.size(); ++i) {
            const PtPair oc = pts.items[i];
            const ResultSet& aliased =
                walk<Direction::kForward, OnNew::kPush>(oc.node, oc.ctx);
            for (std::size_t j = 0; j < aliased.items.size(); ++j) {
              const PtPair pc = aliased.items[j];
              for (const HalfEdge ld : pag_->out_edges(pc.node, EdgeKind::kLoad)) {
                if (ld.aux != f) continue;
                const NodeId x = ld.other;  // dst of x = p'.f
                if (!dedup.insert(make_key(x, pc.ctx))) continue;
                found.push_back(JmpTarget{
                    x, pc.ctx, static_cast<std::uint32_t>(charged_ - s0)});
              }
            }
          }
        }
      });
}

void Solver::run_query(Direction dir, OnNew on_new, NodeId root,
                       QueryResult& out) {
  // Pin the reclamation epoch for the whole query: jmp lookups hand back raw
  // pointers into store-owned records, and the pin keeps any record retired
  // by a concurrent erase_if/clear alive until we are done with it. Nested
  // pins (one per lookup would be the alternative) are cheap, but one per
  // query is cheaper still.
  std::optional<support::EpochGuard> epoch_pin;
  if (store_ != nullptr) epoch_pin.emplace(support::global_epoch_domain());

  // Epoch-clear the maps and rewind the slabs: O(1), keeps all storage.
  pts_memo_.clear();
  flows_memo_.clear();
  slice_memo_.clear();
  memo_slab_.reset();
  pending_map_.clear();
  pending_slab_.reset();
  consumed_jmp_keys_.clear();
  sharing_stack_.clear();
  charged_ = 0;
  traversed_ = 0;
  saved_ = 0;
  taint_flag_ = false;
  recursion_depth_ = 0;
  iteration_ = 0;

  if (trace_ != nullptr) {
    trace_->clear();
    depth_high_water_ = 0;
    trace_->emit(obs::TraceEvent::kQueryStart, root.value(),
                 dir == Direction::kForward ? 1u : 0u);
  }

  const auto& memo = memo_for(dir, on_new);
  const CtxId rc = ContextTable::empty();
  const Key root_key = make_key(root, rc);

  out.status = QueryStatus::kComplete;
  out.tuples.clear();
  std::uint32_t iterations = 0;
  bool converged = false;
  try {
    for (;;) {
      ++iterations;
      iteration_ = iterations;
      grew_ = false;
      taint_flag_ = false;
      if (on_new == OnNew::kSkip && dir == Direction::kBackward)
        walk<Direction::kBackward, OnNew::kSkip>(root, rc);
      else if (on_new == OnNew::kSkip)
        walk<Direction::kForward, OnNew::kSkip>(root, rc);
      else if (dir == Direction::kBackward)
        walk<Direction::kBackward, OnNew::kRecord>(root, rc);
      else
        walk<Direction::kForward, OnNew::kPush>(root, rc);

      // Exact if the root computation never touched a cycle; otherwise
      // iterate (sets grow monotonically) until stable or capped.
      const std::uint32_t* root_index = memo.find(root_key);
      PARCFL_DCHECK(root_index != nullptr);
      const bool root_tainted = memo_slab_[*root_index].tainted;
      if (!root_tainted) {
        converged = true;
        break;
      }
      if (iterations > 1 && !grew_) {
        converged = true;
        break;
      }
      if (iterations >= options_.max_fixpoint_iters) break;

      // Demote every tainted entry for recomputation, keeping its set as the
      // (monotone) starting point. The slab holds exactly this query's
      // entries (both directions), in creation order.
      for (std::uint32_t i = 0; i < memo_slab_.used(); ++i) {
        MemoEntry& e = memo_slab_[i];
        if (e.tainted && e.state == MemoEntry::State::kDone) {
          e.state = MemoEntry::State::kStale;
          e.tainted = false;
        }
      }
    }
    out.status = QueryStatus::kComplete;

    // Deferred publication: during the final (converged) iteration no memo
    // set grew, so every result read then — including partial reads on
    // cycles — was already complete. Tainted RN results from that iteration
    // are therefore exact and shareable.
    if (converged && options_.data_sharing && store_ != nullptr) {
      for (std::uint32_t i = 0; i < pending_slab_.used(); ++i) {
        PendingJmp& pending = pending_slab_[i];
        if (pending.published) continue;                // consumed earlier
        if (pending.iteration != iterations) continue;  // possibly stale
        if (pending.max_cost >= options_.tau_finished) {
          publish_finished(pending.key, pending.max_cost,
                           pending.targets.data(), pending.targets.size());
        } else {
          ++counters_.jmps_suppressed;
        }
      }
    }
  } catch (const OutOfBudgetEx& ex) {
    out.status = ex.early_termination ? QueryStatus::kEarlyTermination
                                      : QueryStatus::kOutOfBudget;
    sharing_stack_.clear();
  }

  // Batched publication flushes once per query, on every exit path: aborted
  // queries still contribute their unfinished jmps (Alg. 2 line 24), they
  // just stop contending with readers mid-traversal.
  flush_publications();

  if (const std::uint32_t* root_index = memo.find(root_key))
    out.tuples = memo_slab_[*root_index].set.items;

  ++counters_.queries;
  if (out.status == QueryStatus::kOutOfBudget) ++counters_.out_of_budget;
  counters_.charged_steps += charged_;
  counters_.traversed_steps += traversed_;
  counters_.saved_steps += saved_;
  counters_.points_to_tuples += out.tuples.size();
  counters_.fixpoint_iterations += iterations - 1;

  if (trace_ != nullptr) {
    trace_->emit(obs::TraceEvent::kDepthHighWater, depth_high_water_);
    trace_->emit(obs::TraceEvent::kQueryStats, traversed_, iterations);
    trace_->emit(obs::TraceEvent::kQueryEnd, charged_,
                 static_cast<std::uint32_t>(out.status));
  }
}

}  // namespace parcfl::cfl
