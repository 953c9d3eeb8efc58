#pragma once
// CsIndex — an immutable, compact reachability index over hot (source node,
// context) regions of the PAG (DESIGN.md §13). The service's background
// compactor mines hot keys from the batch stream, runs a bounded offline
// closure per key (a cold sequential solve — no jmp store, no data sharing),
// and freezes the answers into a key-sorted entry array (binary-searched at
// dispatch) pointing into one flat, per-entry-sorted target pool — an index
// hit is answered by a memcpy, at 0 charged solver steps.
//
// Soundness contract (why serving an entry is outcome-identical to solving):
// only `QueryStatus::kComplete` answers are indexed, together with the
// charged-step cost of the cold solve that produced them. Dispatch serves an
// entry only when the request's effective budget is at least that cost; a
// deterministic re-solve under any mode would complete with the same answer
// (the solver's cross-configuration answer identity, solver.hpp).
//
// Invalidation: an update drops exactly the entries whose root is in the jmp
// invalidation cone (cfl/invalidate.hpp) — Session::update reads the cone's
// backward plane and publishes `without()` the dropped keys; the compactor
// cold-solves only those keys (plus fresh hot roots) and publishes the
// survivors `merged()` with the new entries.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cfl/context.hpp"
#include "cfl/solver.hpp"
#include "pag/pag.hpp"

namespace parcfl::cfl {

struct CsIndexStats {
  std::uint64_t entries = 0;
  std::uint64_t targets = 0;
  /// Total charged solver steps spent building (amortisation numerator).
  std::uint64_t build_charged_steps = 0;
  std::uint32_t revision = 0;  // PAG revision the entries answer for
  std::uint64_t memory_bytes = 0;
};

class CsIndex {
 public:
  struct Entry {
    std::uint64_t key;           // (node << 32) | ctx
    std::uint32_t target_begin;  // into the shared target pool
    std::uint32_t target_len;
    std::uint32_t cost;  // charged steps of the cold solve that minted it
  };

  static std::uint64_t key(pag::NodeId node, CtxId ctx = ContextTable::empty()) {
    return (static_cast<std::uint64_t>(node.value()) << 32) | ctx.value();
  }
  static pag::NodeId key_node(std::uint64_t key) {
    return pag::NodeId(static_cast<std::uint32_t>(key >> 32));
  }

  /// Binary search; null on miss. The index is immutable, so concurrent
  /// readers need no lock.
  const Entry* find(std::uint64_t key) const;

  std::span<const pag::NodeId> targets(const Entry& e) const {
    return {targets_.data() + e.target_begin, e.target_len};
  }
  std::span<const Entry> entries() const { return entries_; }
  std::uint32_t revision() const { return revision_; }
  CsIndexStats stats() const;

  /// A copy without the given (sorted) keys, restamped to `new_revision`.
  /// The target pool is compacted.
  std::unique_ptr<const CsIndex> without(
      std::span<const std::uint64_t> drop_sorted,
      std::uint32_t new_revision) const;

  /// This index with `fresh`'s entries merged in, `fresh` winning on a
  /// shared key: at most `max_entries` entries (smallest keys kept), stamped
  /// with `fresh`'s revision, charging both builds' steps. The compactor
  /// merges each pass's cold solves into the published index this way.
  std::unique_ptr<const CsIndex> merged(const CsIndex& fresh,
                                        std::size_t max_entries) const;

 private:
  CsIndex() = default;
  /// Append `e`, copying its target run out of `from`.
  void append(const CsIndex& from, const Entry& e);
  friend std::unique_ptr<const CsIndex> build_csindex(
      const pag::Pag& pag, std::span<const std::uint64_t> hot_keys,
      const SolverOptions& options, const std::atomic<bool>* cancel);

  std::vector<Entry> entries_;          // sorted by key
  std::vector<pag::NodeId> targets_;    // each entry's run sorted ascending
  std::uint32_t revision_ = 0;
  std::uint64_t build_charged_steps_ = 0;
};

/// Build an index over `hot_keys` ((node << 32) | ctx; duplicates, foreign
/// nodes, non-variables and non-empty contexts are skipped — the compactor
/// only mines context-empty roots today). Each key is answered by a cold
/// sequential solve under `options` (data sharing and tracing forced off);
/// only complete answers are kept. `cancel`, when non-null, aborts the build
/// between solves and returns null — the caller re-queues. Never returns an
/// index answering for a different graph than `pag` (revision is stamped
/// from it).
std::unique_ptr<const CsIndex> build_csindex(
    const pag::Pag& pag, std::span<const std::uint64_t> hot_keys,
    const SolverOptions& options,
    const std::atomic<bool>* cancel = nullptr);

}  // namespace parcfl::cfl
