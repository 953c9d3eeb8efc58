#pragma once
// A Session is the resident half of the query service: it owns a loaded PAG
// plus the persistent ContextTable/JmpStore and a warm cfl::BatchRunner.
// Every micro-batch executed against it leaves jmp shortcuts behind, so a
// query stream gets monotonically cheaper — the across-run reuse that
// cfl/persist.hpp only offered as save/reload is kept *live* here.
//
// The graph is one immutable Revision (base graph, serving graph, reduce
// stats) behind a shared_ptr: update() builds the next one and swaps the
// pointer, and a retired revision is freed with its last holder. Each
// revision also carries a slot filled after it is published: the Andersen
// prefilter solved on its serving graph. One revision snapshot thus gives a
// batch a graph and a prefilter that agree by construction. The passive
// reachability index (cfl/csindex.hpp) lives on the session itself: only
// run_batch and update() write it, both under batch_mu_, and update()
// prunes and restamps it before publishing the next revision.
//
// Pre-solve pipeline (DESIGN.md §11), both stages on by default:
//  * Graph reduction — the session serves the *reduced* graph
//    (pag/reduce.hpp): edges that can never lie on a complete flowsTo
//    derivation are dropped up front, so every traversal walks fewer steps
//    for identical answers. The faithful unreduced graph is kept as the
//    revision's base: client deltas are recorded against it (a delta may
//    remove an edge reduction already dropped), and each update re-reduces
//    the new base. With reduction off, base and serving graph are one
//    object. Reduction preserves node ids, so request validation and the
//    wire protocol are oblivious to it.
//  * Andersen prefilter — a background thread solves the word-parallel
//    inclusion analysis (andersen/prefilter.hpp) over each revision's
//    serving graph and fills that revision's prefilter slot. run_batch
//    answers a points-to item whose row is empty without touching a solver;
//    the service consults no_alias() to short-circuit whole alias pairs.
//    Between an update and the rebuild filling the new revision's slot,
//    queries simply fall through to the solver (slower, never wrong).
//
// Concurrency contract:
//  * run_batch() serialises batches on batch_mu_ (the engine parallelises
//    *within* a batch across the configured worker threads). It takes one
//    revision snapshot and answers every item from it: index hit, then
//    provably-empty points-to set, then the solver on its serving graph.
//    After the solve it records the complete points-to answers in the index.
//  * update() takes batch_mu_ too: the invalidate-then-publish runs strictly
//    between batches, so no batch ever observes a half-applied delta.
//  * rev_mu_ is held only to copy or replace the revision pointer.
//    Validation reads (node_count, is_variable_node, revision,
//    reduce_stats), resident_bytes and the prefilter probes each copy one
//    revision snapshot and never block behind a batch or an update.
//  * pag_mu_ keeps save/load/spill out of update's invalidate + publish
//    window, so stored state never mixes jmp entries of two revisions: they
//    take it shared, update exclusively.
//  * pf_mu_ guards every revision's prefilter slot and the prefilter thread's
//    work order: the revision to solve next (pf_rev_) and the dirty and
//    add-only flags, which update() sets together. The thread solves without
//    any session lock and fills the bound revision's slot if that revision
//    is still its work order; update() empties the slot of the revision it
//    retires, so only the live revision holds a prefilter.
//  * index_mu_ guards the index table and its counters against readers
//    outside a batch (index_info, resident_bytes): run_batch and update()
//    take it only to write, inside batch_mu_, and run_batch probes the
//    table under batch_mu_ alone.
//  * Lock order: batch_mu_ → pag_mu_ → index_mu_ → pf_mu_ → rev_mu_. A
//    thread may skip any of them but never takes one that precedes a lock
//    it holds.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cfl/csindex.hpp"
#include "cfl/engine.hpp"
#include "cfl/invalidate.hpp"
#include "pag/delta.hpp"
#include "pag/pag.hpp"
#include "pag/reduce.hpp"

namespace parcfl::andersen {
class Prefilter;
}

namespace parcfl::service {

class Session {
 public:
  struct Options {
    Options() { engine.mode = cfl::Mode::kDataSharingScheduling; }
    cfl::EngineOptions engine;  // defaults to ParCFL_DQ; threads from caller
    /// When non-empty, warm-start from this state file if it exists (a
    /// missing file is not an error — the session just starts cold).
    std::string state_path;
    /// Serve the reduced graph (pag/reduce.hpp). Identical answers, fewer
    /// traversed steps; keeps a second graph resident (the unreduced base).
    bool reduce_graph = true;
    /// Solve the Andersen prefilter in the background and short-circuit
    /// provably-empty queries / provably-no alias pairs.
    bool prefilter = true;
    /// Record the solver's complete points-to answers in the reachability
    /// index (cfl/csindex.hpp) and answer repeats at 0 charged steps.
    /// Forced off when charge_jmp_costs is set: under that (diagnostic)
    /// configuration budget consumption is configuration-dependent, so a
    /// recorded cost says nothing about what a later solve would charge.
    bool index = true;
  };

  /// One query of a micro-batch.
  struct Item {
    pag::NodeId var;
    std::uint64_t budget = 0;  // 0 = engine default
    /// Which walk answers the item (DESIGN.md §15). Non-pointer kinds
    /// bypass the reachability index, which holds points-to answers only,
    /// and `var` must be a variable node for every kind
    /// (Solver::taint/depends check it).
    cfl::QueryKind kind = cfl::QueryKind::kPointsTo;
  };

  struct ItemResult {
    cfl::QueryStatus status = cfl::QueryStatus::kComplete;
    std::vector<pag::NodeId> objects;  // sorted, context-projected
    std::uint64_t charged_steps = 0;
  };

  struct BatchResult {
    std::vector<ItemResult> items;       // parallels the input span
    /// This batch's engine counters, plus the prefilter hits and misses of
    /// its points-to items.
    support::QueryCounters delta;
    double wall_seconds = 0.0;
  };

  struct UpdateStats {
    pag::ApplyStats apply;
    cfl::InvalidateStats invalidate;
    pag::ReduceStats reduce;     // all-zero when reduction is disabled
    std::uint32_t revision = 0;  // the graph's revision after the update
  };

  Session(pag::Pag pag, Options options);
  ~Session();

  /// Execute one micro-batch; item order is preserved in the result even
  /// when the DQ scheduler reorders execution. Thread-safe (serialised).
  BatchResult run_batch(std::span<const Item> items);

  /// Apply a PAG delta: build base + delta, evict the finished jmp entries
  /// whose recorded traversals the change could invalidate, carrying their
  /// unfinished halves (cfl/invalidate.hpp), and swap the new graph in.
  /// Serialised against batches; after it returns, warm queries keep the
  /// answer contract (DESIGN.md §8): a complete answer is exactly a cold
  /// run's on the mutated graph, an incomplete one a subset of it.
  /// With reduction on, the delta applies to the unreduced base and the
  /// invalidation cone is seeded from the *serving-graph* edge diff — the
  /// edges whose keep decision actually changed, wherever they are.
  bool update(const pag::Delta& delta, std::string* error,
              UpdateStats* stats = nullptr);
  /// read_delta from `path`, then update().
  bool update_from_file(const std::string& path, std::string* error,
                        UpdateStats* stats = nullptr);

  /// Crash-safe v3 snapshot of the shared state (temp file + fsync +
  /// rename); safe while batches run (the jmp snapshot is epoch-pinned),
  /// serialised only against update's swap window.
  bool save(const std::string& path, std::string* error);
  /// Merge a previously saved v3 state file into the live session. Any other
  /// file (a leftover text state, say) fails and leaves the session as is.
  bool load(const std::string& path, std::string* error);

  /// Eviction spill (session manager): write the warm state as mmap-able v3
  /// to `state_path`, and — iff the graph drifted from its source file
  /// (revision() != 0) — write the current base graph to `spill_pag_path`,
  /// stamping the pair as a consistent epoch-0 snapshot (*wrote_pag reports
  /// whether that happened). A reopen then reads the spilled graph at epoch 0
  /// and warm-starts from the state via the zero-copy mmap path.
  bool spill(const std::string& state_path, const std::string& spill_pag_path,
             bool* wrote_pag, std::string* error);

  /// Approximate resident footprint: the live revision's graphs and
  /// prefilter, the index, the jmp store, context table and the batch runner's schedule
  /// plan. The service reports it as `resident_bytes` in `stats` and as the
  /// parcfl_session_resident_bytes gauge in `metrics`.
  std::uint64_t resident_bytes() const;
  /// Schedule plans the batch runner has built (one per graph revision that
  /// served a ParCFL_DQ batch).
  std::uint64_t schedule_plan_builds() const {
    return runner_.schedule_plan_builds();
  }

  /// Validation reads for client threads; consistent under concurrent
  /// update (node ids are never removed, so a request validated against any
  /// revision stays valid for all later ones).
  std::uint32_t node_count() const;
  bool is_variable_node(pag::NodeId n) const;
  /// Delta epoch of the live graph (0 until the first update).
  std::uint32_t revision() const;

  /// True when Andersen proves pts(a) ∩ pts(b) = ∅ on the current revision —
  /// alias(a,b) is impossible and the pair needs no solver time. False while
  /// the live revision has no prefilter yet (never wrong, merely unhelpful).
  /// Counts into lifetime_totals() as one prefilter hit/miss per consulted
  /// pair.
  bool prefilter_no_alias(pag::NodeId a, pag::NodeId b) const;
  /// True when the live revision's prefilter is built.
  bool prefilter_ready() const;
  /// Block until the prefilter covers the current revision (tests, benches,
  /// loadgen warm-up). Returns false immediately when the prefilter is
  /// disabled or the session is shutting down.
  bool wait_for_prefilter();
  /// The live revision's prefilter; null until its solve finishes, or when
  /// disabled.
  std::shared_ptr<const andersen::Prefilter> prefilter_snapshot() const;
  /// Pause/resume the background prefilter rebuild loop (test hook: holds
  /// the service in the update-committed/rebuild-pending window so the stats
  /// staleness contract can be observed deterministically).
  void set_prefilter_paused(bool paused);
  /// Reduction stats of the live serving graph (all-zero when disabled).
  pag::ReduceStats reduce_stats() const;

  // ---- reachability index (cfl/csindex.hpp; DESIGN.md §13) ----------------

  struct IndexInfo {
    bool enabled = false;
    std::uint64_t entries = 0, targets = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t builds = 0;       // complete answers recorded, lifetime
    std::uint64_t invalidated = 0;  // entries dropped by updates, lifetime
    std::uint64_t memory_bytes = 0;
    std::uint32_t revision = 0;  // graph revision the index answers for
  };
  /// Snapshot of the index plane; `enabled` false when the index is off.
  /// Never waits on a batch.
  IndexInfo index_info() const;
  /// True when the index is live on this session.
  bool index_enabled() const { return index_enabled_; }
  /// run_batch fills the index before it returns, so there is nothing to
  /// wait for: returns index_enabled() at once.
  bool wait_for_index() const { return index_enabled_; }
  /// True when warm-start found a state file that is a well-formed image for
  /// a *different* graph or epoch (the manager unlinks such stale spills).
  bool warm_start_stale() const { return warm_stale_; }

  /// Direct graph access for single-threaded callers (tests, benchmarks).
  /// The reference is valid until the next update(), which retires the
  /// revision it points into. pag() is the graph queries run against
  /// (reduced when reduce_graph is on); base_pag() is the faithful
  /// client-visible graph deltas apply to.
  const pag::Pag& pag() const;
  const pag::Pag& base_pag() const;
  const cfl::JmpStore& store() const { return store_; }
  std::uint64_t context_count() const { return contexts_.size(); }
  /// Cumulative engine counters over every batch served, including
  /// service-level prefilter alias short-circuits. Serialised against
  /// run_batch (workers write their counters unsynchronised mid-batch), so a
  /// stats probe may wait out the batch in flight.
  support::QueryCounters lifetime_totals() const;

 private:
  struct Revision;

  /// A snapshot of the live revision.
  std::shared_ptr<const Revision> live() const;
  /// A revision's slots, each read under the lock that guards it.
  std::shared_ptr<const andersen::Prefilter> prefilter_of(
      const Revision& rev) const;
  /// Background build loop: wait for a dirty revision, solve it, publish.
  void prefilter_main();

  bool reduce_graph_ = false;
  bool prefilter_enabled_ = false;
  /// The live revision; replaced only by update() under batch_mu_, pag_mu_
  /// and index_mu_.
  mutable std::mutex rev_mu_;
  std::shared_ptr<const Revision> rev_;  // guarded by rev_mu_
  cfl::ContextTable contexts_;
  cfl::JmpStore store_;
  cfl::InvalidateOptions invalidate_options_;  // mirrors the solver config
  cfl::BatchRunner runner_;
  mutable std::mutex batch_mu_;
  mutable std::shared_mutex pag_mu_;  // lock order: see the file comment

  /// Guards every revision's prefilter slot, pf_rev_ and the flags.
  mutable std::mutex pf_mu_;
  std::condition_variable pf_cv_;
  /// The revision the next build solves; set by update() together with
  /// pf_dirty_ and pf_add_only_.
  std::shared_ptr<const Revision> pf_rev_;
  bool pf_dirty_ = false;
  bool pf_stop_ = false;
  /// Every delta since the last build start was add-only — the previous
  /// fixpoint is a sound under-approximation and seeds the next solve.
  bool pf_add_only_ = true;
  /// Points-to items and alias pairs the prefilter answered / consulted
  /// without a proof (run_batch, prefilter_no_alias), merged into
  /// lifetime_totals().
  mutable std::atomic<std::uint64_t> pf_hits_{0};
  mutable std::atomic<std::uint64_t> pf_misses_{0};
  /// Test hook: while true the rebuild loop sits on a marked-dirty graph.
  bool pf_paused_ = false;  // guarded by pf_mu_
  std::thread prefilter_thread_;

  // ---- reachability index ------------------------------------------------
  bool index_enabled_ = false;
  std::uint64_t default_budget_ = 0;  // engine solver budget (hit gating)
  /// Written by run_batch and update() under batch_mu_ and index_mu_; read
  /// by run_batch under batch_mu_, by everyone else under index_mu_.
  mutable std::mutex index_mu_;
  cfl::CsIndex index_;
  mutable std::atomic<std::uint64_t> index_hits_{0};
  mutable std::atomic<std::uint64_t> index_misses_{0};
  std::uint64_t index_recorded_ = 0;     // guarded by index_mu_
  std::uint64_t index_invalidated_ = 0;  // guarded by index_mu_
  bool warm_stale_ = false;  // set once in the constructor, then read-only
};

}  // namespace parcfl::service
