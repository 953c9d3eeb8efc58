#pragma once
// A Session is the resident half of the query service: it owns a loaded PAG
// plus the persistent ContextTable/JmpStore and a warm cfl::BatchRunner.
// Every micro-batch executed against it leaves jmp shortcuts behind, so a
// query stream gets monotonically cheaper — the across-run reuse that
// cfl/persist.hpp only offered as save/reload is kept *live* here.
//
// Pre-solve pipeline (DESIGN.md §11), both stages on by default:
//  * Graph reduction — the session serves the *reduced* graph
//    (pag/reduce.hpp): edges that can never lie on a complete flowsTo
//    derivation are dropped up front, so every traversal walks fewer steps
//    for identical answers. The faithful unreduced graph is kept as
//    `base_pag_`: client deltas are recorded against it (a delta may remove
//    an edge reduction already dropped), and each update re-reduces the new
//    base. Reduction preserves node ids, so request validation and the wire
//    protocol are oblivious to it.
//  * Andersen prefilter — a background thread solves the word-parallel
//    inclusion analysis (andersen/prefilter.hpp) over the serving graph and
//    publishes the result revision-stamped. Batches consult it through
//    EngineOptions::definitely_empty to answer provably-empty queries without
//    touching a solver; the service consults no_alias() to short-circuit
//    whole alias pairs. A result whose revision does not match the live
//    graph is never consulted — between an update and the rebuild finishing,
//    queries simply fall through to the solver (slower, never wrong).
//
// Concurrency contract:
//  * run_batch() serialises batches on batch_mu_ (the engine parallelises
//    *within* a batch across the configured worker threads).
//  * update() takes batch_mu_ exclusively too: the invalidate-then-swap runs
//    strictly between batches, so no in-flight batch ever observes a
//    half-applied delta. The Pag object itself is move-assigned in place —
//    its address never changes — so the references the BatchRunner and its
//    warm solvers hold stay valid across the swap.
//  * pag_mu_ protects the graph's *contents* for readers outside batch_mu_:
//    save/load, validation reads (node_count / is_variable_node) and stats
//    take it shared; update holds it exclusively only for the short
//    invalidate + swap window, so the control plane never blocks behind a
//    whole batch. The prefilter thread copies the graph under it.
//  * pf_mu_ guards the prefilter build state (latest result, dirty flag).
//    `active_prefilter_` — the result the in-flight batch reads through the
//    definitely_empty predicate — is written only under batch_mu_ (refreshed
//    at batch start, cleared by update), so predicate reads need no lock.
//  * The reachability index (cfl/csindex.hpp, DESIGN.md §13) is published
//    through the process EpochDomain: run_batch pins an epoch and
//    acquire-loads `index_`; update and the compactor swap it under cx_mu_
//    and retire the old snapshot, so index reads never block. cx_mu_ guards
//    the compactor's queue/counters.
//  * Lock order: batch_mu_ before pag_mu_ before cx_mu_; pf_mu_ and cx_mu_
//    are leaf locks — never held while acquiring another lock (the compactor
//    releases cx_mu_ before copying the graph under pag_mu_).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
#include "pag/partition.hpp"
#include "pag/reduce.hpp"
#include "service/protocol.hpp"

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
    /// traversed steps; costs one extra graph copy (the unreduced base).
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
    /// Partitioned worker mode (DESIGN.md §14): when set, this session
    /// serves partition `partition_id` of a sharded PAG. The graph passed to
    /// the constructor must be that partition's sub-PAG (pag::make_sub_pag —
    /// node ids are global, so the owner table indexes it directly). The
    /// pre-solve pipeline is forced off: graph reduction is unsound on a
    /// sub-PAG (a paren's match may live on another partition), and the
    /// prefilter/index would answer from partition-local information. Batch
    /// queries (`query`/`alias`) answer partition-local reachability only;
    /// exact global answers flow through run_continuation and the router.
    std::shared_ptr<const pag::PartitionMap> partition;
    std::uint32_t partition_id = 0;
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
    support::QueryCounters delta;        // engine counters for this batch only
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

  // ---- partitioned continuation plane (DESIGN.md §14) ---------------------

  /// One continuation task: run configuration (node, chain) in `dir` with
  /// the caller's accumulated facts seeded.
  struct ContRequest {
    pag::NodeId node = pag::NodeId::invalid();
    cfl::Direction dir = cfl::Direction::kBackward;
    std::span<const std::uint32_t> chain;  // bottom-first call-site ids
    std::uint64_t budget = 0;              // 0 = engine default
  };

  /// Results and escapes cross the process boundary as chains, not CtxIds
  /// (they index this session's private interning table), in wire order:
  /// every result tuple, then every escape (protocol.hpp's `cont` payload).
  struct ContResult {
    cfl::QueryStatus status = cfl::QueryStatus::kComplete;
    std::uint64_t charged_steps = 0;
    std::vector<ContRecord> records;
  };

  bool partitioned() const { return partition_map_ != nullptr; }
  std::uint32_t partition_id() const { return partition_id_; }
  std::uint32_t partition_count() const {
    return partition_map_ ? partition_map_->parts : 1;
  }

  /// Intern a wire chain into the session's context table, validating every
  /// call site against the graph. Fails on out-of-range sites or depth
  /// overflow; never crashes on hostile input.
  bool intern_chain(std::span<const std::uint32_t> chain, cfl::CtxId* out,
                    std::string* error);

  /// Run one continuation task against this partition: seeds the solver with
  /// `seeds` (the caller's accumulated cross-partition facts, keyed by this
  /// session's interned CtxIds), runs the configuration, and returns result
  /// tuples plus the escapes the router must chase. Serialised with batches
  /// on the batch lock. Fails when the session is not partitioned.
  bool run_continuation(const ContRequest& request, const cfl::SeedFacts& seeds,
                        ContResult& out, std::string* error);

  struct PartitionInfo {
    bool enabled = false;
    std::uint32_t id = 0, parts = 1;
    std::uint64_t continuations = 0;  // run_continuation calls served
    std::uint64_t escapes = 0;        // escape records returned, lifetime
    std::uint64_t seeded_tuples = 0;  // injected facts consumed by tasks
    /// Wall time spent inside the serialized continuation section (the
    /// per-worker bottleneck resource). Benchmarks derive the fleet's
    /// machine-independent makespan from it — max over workers — the same
    /// way the engine benches report step-domain makespan, so scaling
    /// numbers survive single-core CI hosts.
    std::uint64_t busy_ns = 0;
  };
  PartitionInfo partition_info() const;

  /// Apply a PAG delta: build base + delta, evict the jmp entries whose
  /// recorded traversals the change could invalidate (cfl/invalidate.hpp),
  /// and swap the new graph in. Serialised against batches; after it returns,
  /// warm queries answer exactly as a cold run on the mutated graph would.
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

  /// Approximate resident footprint: serving + base graph, jmp store,
  /// context table and the batch runner's schedule plan. What the manager's
  /// max_resident_bytes cap meters.
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
  /// alias(a,b) is impossible and the pair needs no solver time. False on a
  /// stale or absent prefilter (never wrong, merely unhelpful). Counts into
  /// lifetime_totals() as one prefilter hit/miss per consulted pair.
  bool prefilter_no_alias(pag::NodeId a, pag::NodeId b) const;
  /// True when the latest prefilter matches the live graph revision.
  bool prefilter_ready() const;
  /// Block until the prefilter covers the current revision (tests, benches,
  /// loadgen warm-up). Returns false immediately when the prefilter is
  /// disabled or the session is shutting down.
  bool wait_for_prefilter();
  /// Latest built prefilter (possibly stale — check revision()); null until
  /// the first solve finishes or when disabled.
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
  /// Do not use from a thread that can race an update(). pag() is the graph
  /// queries run against (reduced when reduce_graph is on); base_pag() is
  /// the faithful client-visible graph deltas apply to.
  const pag::Pag& pag() const { return pag_; }
  const pag::Pag& base_pag() const { return base_pag_ ? *base_pag_ : pag_; }
  const cfl::JmpStore& store() const { return store_; }
  std::uint64_t context_count() const { return contexts_.size(); }
  /// Cumulative engine counters over every batch served, including
  /// service-level prefilter alias short-circuits. Serialised against
  /// run_batch (workers write their counters unsynchronised mid-batch), so a
  /// stats probe may wait out the batch in flight.
  support::QueryCounters lifetime_totals() const;

 private:
  cfl::EngineOptions engine_options(const Options& options);
  /// Recompute active_prefilter_ for the batch about to run. Caller holds
  /// batch_mu_.
  void refresh_active_prefilter();
  /// Background build loop: wait for a dirty graph, copy it, solve, publish.
  void prefilter_main();
  /// Background compaction loop: wait for queued hot roots, copy the graph,
  /// build the index (generation-checked against racing updates), publish.
  void compactor_main();

  bool reduce_graph_ = false;
  bool prefilter_enabled_ = false;
  pag::ReduceStats reduce_stats_{};  // of the live pag_; guarded by pag_mu_
  /// Engaged iff reduce_graph_: the unreduced graph, base for deltas. When
  /// reduction is off the serving graph *is* the base and no copy is kept.
  std::optional<pag::Pag> base_pag_;
  pag::Pag pag_;  // the serving graph (reduced when reduce_graph_)
  cfl::ContextTable contexts_;
  cfl::JmpStore store_;
  cfl::InvalidateOptions invalidate_options_;  // mirrors the solver config
  /// Worker-mode partition state. Declared before runner_: engine_options()
  /// publishes the view into the engine options while runner_ constructs.
  std::shared_ptr<const pag::PartitionMap> partition_map_;
  std::uint32_t partition_id_ = 0;
  cfl::PartitionView partition_view_{};
  cfl::BatchRunner runner_;
  /// Lazy dedicated solver for run_continuation (guarded by batch_mu_): the
  /// BatchRunner's solvers stay on the batch path, the continuation path
  /// keeps its own so the two never share per-query scratch.
  std::unique_ptr<cfl::Solver> cont_solver_;
  std::atomic<std::uint64_t> part_continuations_{0};
  std::atomic<std::uint64_t> part_escapes_{0};
  std::atomic<std::uint64_t> part_seeded_{0};
  std::atomic<std::uint64_t> part_busy_ns_{0};
  mutable std::mutex batch_mu_;
  // Lock order: batch_mu_ before pag_mu_ (update takes both; everyone else
  // takes exactly one).
  mutable std::shared_mutex pag_mu_;

  /// Read by the definitely_empty predicate from engine workers; written
  /// only under batch_mu_ (refresh at batch start, clear in update), and the
  /// predicate only runs inside runner_.run — also under batch_mu_.
  std::shared_ptr<const andersen::Prefilter> active_prefilter_;
  mutable std::mutex pf_mu_;  // guards prefilter_ / pf_dirty_ / pf_add_only_
  std::condition_variable pf_cv_;
  std::shared_ptr<const andersen::Prefilter> prefilter_;  // latest build
  bool pf_dirty_ = false;
  bool pf_stop_ = false;
  /// Every delta since the last build start was add-only — the previous
  /// fixpoint is a sound under-approximation and seeds the next solve.
  bool pf_add_only_ = true;
  /// Alias pairs short-circuited / consulted-but-unproven at the service
  /// level (prefilter_no_alias), merged into lifetime_totals().
  mutable std::atomic<std::uint64_t> pf_alias_hits_{0};
  mutable std::atomic<std::uint64_t> pf_alias_misses_{0};
  /// Test hook: while true the rebuild loop sits on a marked-dirty graph.
  bool pf_paused_ = false;  // guarded by pf_mu_
  std::thread prefilter_thread_;

  // ---- reachability index / compactor state -------------------------------
  bool index_enabled_ = false;
  std::uint32_t index_hot_threshold_ = 4;
  std::uint64_t default_budget_ = 0;  // engine solver budget (hit gating)
  cfl::SolverOptions cx_solver_options_;  // for the compactor's cold solves
  /// The published index. Readers pin the global EpochDomain and
  /// acquire-load; writers (update under batch_mu_, the compactor) swap
  /// under cx_mu_ and retire the old snapshot through the domain.
  std::atomic<const cfl::CsIndex*> index_{nullptr};
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
  /// Bumped by every update (under cx_mu_): a compactor pass whose start
  /// generation is stale at publish time discards its build and re-queues.
  std::uint64_t cx_generation_ = 0;
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
