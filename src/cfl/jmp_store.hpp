#pragma once
// Shared store of jmp (shortcut) edges — the data-sharing scheme of §III-B.
// Conceptually these extend the PAG (Fig. 4); following the paper's
// implementation (§IV-A) they live in a concurrent map keyed by the source
// configuration (x, c) rather than being spliced into the read-only graph.
//
// Two kinds of entries per key (both may be present; Alg. 2 checks the
// unfinished kind first):
//
//  * finished — Fig. 3(a): ReachableNodes(x, c) completed; the entry stores
//    the full target set {(y_k, c_k)} with the per-target step distance s_k
//    and the total traversal cost. A later query taking the shortcut charges
//    the cost to its budget (identical budget semantics) without traversing.
//
//  * unfinished — Fig. 3(b): a traversal ran out of budget s steps after
//    (x, c); a later query whose remaining budget is below s terminates
//    early (ET). An edit never invalidates this half: it can only stop a
//    walk, never add a target, so erase_if can trim an entry to it while
//    dropping the finished half (cfl/invalidate.hpp).
//
// Insertion is first-wins for both kinds (the paper: concurrent inserters —
// "only one of the two will succeed"; preferring the larger s was judged
// cost-ineffective). Keys are direction-qualified: the backward (PointsTo)
// and forward (FlowsTo) heap matches share independently.
//
// Read-path contract (DESIGN.md §9): lookup is lock-free and RMW-free — it
// copies a {record pointer, unfinished s} pair out of an epoch-protected
// slot array; no spinlock, no shared_ptr refcount traffic. The FinishedJmp
// behind Lookup::finished is immutable and owned by the store. It stays
// valid until the store reclaims it (erase_if / clear / destruction) — and
// even across those, for as long as the reading thread holds a pin() guard
// taken before the lookup. The solver pins once per query; erase_if/clear
// run at quiescent points by the existing invalidation contract, so the two
// protections overlap rather than leaving a gap.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "cfl/context.hpp"
#include "pag/pag.hpp"
#include "support/ebr.hpp"
#include "support/mem_meter.hpp"
#include "support/sharded_map.hpp"
#include "support/stats.hpp"

namespace parcfl::cfl {

enum class Direction : std::uint8_t { kBackward = 0, kForward = 1 };

struct JmpTarget {
  pag::NodeId node;
  CtxId ctx;
  std::uint32_t steps;  // s_k: charged steps from (x,c) to discovery of this target
};

/// Immutable once published.
struct FinishedJmp {
  std::uint32_t cost;  // total charged steps of the completed ReachableNodes
  std::vector<JmpTarget> targets;
};

class JmpStore {
 public:
  struct Lookup {
    const FinishedJmp* finished = nullptr;  // store-owned; see lifetime note
    std::uint32_t unfinished_s = 0;         // 0 = absent
  };

  ~JmpStore() {
    // Destruction is single-threaded by contract; free records directly
    // rather than deferring them to the epoch domain.
    map_.for_each_copy([](std::uint64_t, const Entry& e) { delete e.finished; });
  }

  /// Pin the reclamation epoch: every Lookup::finished pointer obtained while
  /// the guard is alive stays valid even if erase_if/clear retire its entry
  /// concurrently. Cheap when nested (the solver holds one per query).
  support::EpochGuard pin() const {
    return support::EpochGuard(support::global_epoch_domain());
  }

  /// Key for configuration (x, c) in a traversal direction. The 31-bit id
  /// bounds are enforced with hard checks where ids are minted
  /// (Pag::Builder::finalize, ContextTable::push), so the DCHECK here cannot
  /// be reached with aliasing ids in any build mode.
  static std::uint64_t key(Direction dir, pag::NodeId x, CtxId c) {
    PARCFL_DCHECK(x.value() < (1u << 31) && c.value() < (1u << 31));
    return (static_cast<std::uint64_t>(x.value()) << 33) |
           (static_cast<std::uint64_t>(c.value()) << 1) |
           static_cast<std::uint64_t>(dir);
  }

  /// Copy out both entry kinds for a key. Returns false if no entry exists.
  /// Lock-free; see the read-path contract above for pointer lifetime.
  bool lookup(std::uint64_t k, Lookup& out) const {
    Entry e;
    if (!map_.find_copy(k, e)) return false;
    out.finished = e.finished;
    out.unfinished_s = e.unfinished_s;
    return out.finished != nullptr || out.unfinished_s != 0;
  }

  /// Publish a finished jmp set (Fig. 3a / Alg. 2 line 20). First wins.
  /// Returns true if this call inserted.
  bool insert_finished(std::uint64_t k, std::uint32_t cost,
                       std::vector<JmpTarget> targets);

  /// Publish an unfinished jmp (Fig. 3b / Alg. 2 line 24). First wins.
  bool insert_unfinished(std::uint64_t k, std::uint32_t s);

  /// Statistics for Table I (#Jumps) and Fig. 7 (histograms by steps saved).
  struct Stats {
    std::uint64_t finished_entries = 0;
    std::uint64_t finished_edges = 0;  // total jmp targets (one jmp edge each)
    std::uint64_t unfinished_edges = 0;
    support::Pow2Histogram finished_hist;    // per jmp edge, bucketed by s_k
    support::Pow2Histogram unfinished_hist;  // per unfinished edge, by s
    std::uint64_t total_jmps() const { return finished_edges + unfinished_edges; }
  };
  Stats stats() const;

  /// O(1): reads the map's relaxed entry counter, touches no lock.
  std::size_t entry_count() const { return map_.size(); }

  /// Visit every entry as (key, Lookup). Lock-free; the whole iteration runs
  /// under one epoch pin, so record pointers are valid inside fn but must
  /// not escape it. Used by persistence and statistics.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    map_.for_each_copy([&](std::uint64_t key, const Entry& e) {
      Lookup lk;
      lk.finished = e.finished;
      lk.unfinished_s = e.unfinished_s;
      fn(key, lk);
    });
  }

  /// Approximate bytes held by jmp records (for the §IV-D5 memory study).
  std::uint64_t memory_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// What erase_if does with one entry: keep it, drop its finished half
  /// (the entry survives on its unfinished s, if it has one), or drop it.
  enum class Evict : std::uint8_t { kKeep, kFinished, kEntry };

  struct Evicted {
    std::uint64_t dropped = 0;  // entries removed whole
    std::uint64_t carried = 0;  // kFinished entries kept for their unfinished s
  };

  /// Selective invalidation support (cfl/invalidate.hpp): one pass in which
  /// evict(key) returns an Evict verdict per entry. A trimmed entry is
  /// republished as {nullptr, s}; only the finished half's bytes are
  /// released. Shard-atomic (ShardedMap::retain); dropped records are retired
  /// to the epoch domain, so a concurrent reader holding pin() never touches
  /// freed memory — but the caller must still ensure no solver is mid-query
  /// against the graph the evicted entries were computed on (semantic
  /// staleness, not memory safety).
  template <class EvictFn>
  Evicted erase_if(EvictFn&& evict) {
    using Retain = Map::Retain;
    Evicted out;
    std::uint64_t freed = 0;       // mirrors bytes_ accounting
    std::uint64_t freed_recs = 0;  // mirrors MemTally (finished records only)
    out.dropped = map_.retain(
        [&](std::uint64_t key, Entry& e) {
          const Evict verdict = evict(key);
          if (verdict == Evict::kKeep) return Retain::kKeep;
          const bool had_finished = e.finished != nullptr;
          if (had_finished) {
            const std::uint64_t rec_bytes =
                sizeof(FinishedJmp) +
                e.finished->targets.capacity() * sizeof(JmpTarget);
            freed += rec_bytes + sizeof(Entry);
            freed_recs += rec_bytes;
          }
          if (verdict == Evict::kFinished && e.unfinished_s != 0) {
            ++out.carried;
            e.finished = nullptr;
            return had_finished ? Retain::kReplace : Retain::kKeep;
          }
          if (e.unfinished_s != 0) freed += sizeof(Entry);
          return Retain::kDrop;
        },
        [](const Entry& e) {
          if (e.finished != nullptr)
            support::global_epoch_domain().retire_object(e.finished);
        });
    // Saturate rather than wrap if accounting ever disagrees with insertion.
    std::uint64_t bytes = bytes_.load(std::memory_order_relaxed);
    while (!bytes_.compare_exchange_weak(bytes, bytes - std::min(bytes, freed),
                                         std::memory_order_relaxed)) {
    }
    support::MemTally::note_free(freed_recs);
    // Quiescent-point housekeeping: reclaim whatever is provably safe now.
    support::global_epoch_domain().collect();
    return out;
  }

  void clear() {
    map_.clear([](const Entry& e) {
      if (e.finished != nullptr)
        support::global_epoch_domain().retire_object(e.finished);
    });
    bytes_.store(0, std::memory_order_relaxed);
    support::global_epoch_domain().collect();
  }

 private:
  struct Entry {
    const FinishedJmp* finished = nullptr;  // owned by the store
    std::uint32_t unfinished_s = 0;
  };

  using Map = support::ShardedMap<std::uint64_t, Entry>;

  Map map_;
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace parcfl::cfl
