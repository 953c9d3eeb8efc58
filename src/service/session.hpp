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
// revision also carries two slots filled after it is published: the
// Andersen prefilter and the reachability index solved on its serving
// graph. One revision snapshot thus gives a batch a graph, prefilter and
// index that agree by construction.
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
//  * cx_mu_ guards every revision's index slot and the compactor's queue and
//    counters. update() moves the pruned index into the next revision and
//    publishes that revision inside one cx_mu_ section. A compactor pass
//    binds the live revision, builds without any session lock, and merges
//    into that revision's slot only if it is still live.
//  * Lock order: batch_mu_ → pag_mu_ → cx_mu_ → pf_mu_ → rev_mu_. A thread
//    may skip any of them but never takes one that precedes a lock it holds.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cfl/engine.hpp"
#include "cfl/invalidate.hpp"
#include "pag/delta.hpp"
#include "pag/pag.hpp"
#include "pag/reduce.hpp"

namespace parcfl::andersen {
class Prefilter;
}

namespace parcfl::cfl {
class CsIndex;
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
    /// Mine hot query roots into the compact reachability index
    /// (cfl/csindex.hpp) and answer covered queries at 0 charged steps.
    /// Forced off when charge_jmp_costs is set: under that (diagnostic)
    /// configuration budget consumption is configuration-dependent, so an
    /// index hit could complete a query a live solve would not.
    bool index = true;
    /// Solver-served batches a root must appear in (counted once per batch,
    /// however often the batch repeats it) before the compactor queues it.
    /// A root is mined at most once per session lifetime; only updates
    /// requeue the entries they dirty.
    std::uint32_t index_hot_threshold = 4;
  };

  /// One query of a micro-batch.
  struct Item {
    pag::NodeId var;
    std::uint64_t budget = 0;  // 0 = engine default
    /// Which walk answers the item (DESIGN.md §15). Non-pointer kinds
    /// bypass the reachability index and hot mining — both planes cache
    /// points-to answers only — and `var` must be a variable node for every
    /// kind (Solver::taint/depends check it).
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

  /// Approximate resident footprint: the live revision's graphs, prefilter
  /// and index, the jmp store, context table and the batch runner's schedule
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
    std::uint64_t builds = 0;       // compactor passes published
    std::uint64_t invalidated = 0;  // entries dropped by updates, lifetime
    std::uint64_t pending = 0;      // hot keys queued for the next pass
    std::uint64_t build_charged_steps = 0;
    std::uint64_t memory_bytes = 0;
    std::uint32_t revision = 0;  // graph revision the index answers for
  };
  /// Snapshot of the index plane; `enabled` false when the index is off.
  IndexInfo index_info() const;
  /// True when the index is live on this session.
  bool index_enabled() const { return index_enabled_; }
  /// Block until the compactor has drained its queue (tests, benches).
  /// Returns false immediately when the index is disabled, or when the
  /// session is shutting down.
  bool wait_for_index();
  /// Force-queue a root for compaction regardless of the hot threshold
  /// (tests, benches — the serving path mines organically).
  void note_hot(pag::NodeId var);
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
  std::shared_ptr<const cfl::CsIndex> index_of(const Revision& rev) const;
  /// Background build loop: wait for a dirty revision, solve it, publish.
  void prefilter_main();
  /// Background compaction loop: wait for queued hot roots, build them on the
  /// live revision, merge into its index unless an update intervened.
  void compactor_main();

  bool reduce_graph_ = false;
  bool prefilter_enabled_ = false;
  /// The live revision; replaced only by update() under batch_mu_, pag_mu_
  /// and cx_mu_.
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

  // ---- reachability index / compactor state -------------------------------
  bool index_enabled_ = false;
  std::uint32_t index_hot_threshold_ = 4;
  std::uint64_t default_budget_ = 0;  // engine solver budget (hit gating)
  cfl::SolverOptions cx_solver_options_;  // for the compactor's cold solves
  /// Guards every revision's index slot, the queue and the counters.
  mutable std::mutex cx_mu_;
  std::condition_variable cx_cv_;
  std::vector<std::uint64_t> cx_queue_;  // hot keys awaiting compaction
  /// Miss counts per root until the hot threshold promotes them.
  std::unordered_map<std::uint32_t, std::uint32_t> cx_counts_;
  /// Every key ever queued (queued, published, or attempted-and-skipped):
  /// membership stops the miss path from re-mining a root the compactor
  /// already decided about, so an unindexable root cannot loop.
  std::unordered_set<std::uint64_t> cx_queued_;
  bool cx_dirty_ = false;
  bool cx_stop_ = false;
  bool cx_building_ = false;
  /// Set only at shutdown: aborts a mid-flight build between solves.
  std::atomic<bool> cx_cancel_{false};
  mutable std::atomic<std::uint64_t> cx_hits_{0};
  mutable std::atomic<std::uint64_t> cx_misses_{0};
  std::uint64_t cx_builds_ = 0;       // guarded by cx_mu_
  std::uint64_t cx_invalidated_ = 0;  // guarded by cx_mu_
  std::thread compactor_thread_;
  bool warm_stale_ = false;  // set once in the constructor, then read-only
};

}  // namespace parcfl::service
