#pragma once
// Interned calling contexts. A context is a stack of call sites (the `c` of
// the paper's Algorithm 1); the CFL RCS (eq. 3) pushes a site when a traversal
// enters a method and pops/matches when it exits, allowing partially balanced
// parentheses when the stack is empty.
//
// Contexts are hash-consed into 32-bit ids so that (node, context)
// configurations pack into a single 64-bit key for visited sets, memo tables
// and the jmp store. The table is shared by all worker threads:
//  * push() interns under a sharded lock (first-wins),
//  * pop()/top()/depth() are lock-free reads of immutable entries; entry
//    storage is chunked so published entries never move.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pag/pag.hpp"
#include "support/check.hpp"
#include "support/sharded_map.hpp"
#include "support/strong_id.hpp"

namespace parcfl::cfl {

struct CtxTag {};
using CtxId = support::StrongId<CtxTag>;

/// The empty context has id 0 and is always present.
///
/// push() consults a thread-local (parent, site) → id cache before touching
/// the shared intern map, so repeat interning — the overwhelmingly common
/// case on warm traversals — never takes a shard lock. Contexts are never
/// erased, so cached ids cannot go stale within one table; caches are keyed
/// by a per-table generation id so a fresh table never sees another table's
/// entries.
class ContextTable {
 public:
  explicit ContextTable(std::uint32_t max_depth = 256);

  static CtxId empty() { return CtxId(0); }

  /// Intern c.push(site). Returns CtxId::invalid() when max_depth would be
  /// exceeded (the solver treats that as budget exhaustion; with call-graph
  /// recursion collapsed, realisable paths cannot nest deeper than the
  /// acyclic call-chain length).
  CtxId push(CtxId c, pag::CallSiteId site);

  /// c.pop(); the empty context pops to itself (paper Alg. 1 line 14).
  CtxId pop(CtxId c) const {
    return c == empty() ? empty() : entry(c).parent;
  }

  /// Top call site; invalid for the empty context.
  pag::CallSiteId top(CtxId c) const {
    return c == empty() ? pag::CallSiteId::invalid() : entry(c).site;
  }

  std::uint32_t depth(CtxId c) const { return c == empty() ? 0 : entry(c).depth; }

  /// Number of interned contexts (including the empty one).
  std::uint64_t size() const { return next_id_.load(std::memory_order_acquire); }

  std::uint32_t max_depth() const { return max_depth_; }

  /// Render as "[i3, i7]" (top last) — for diagnostics and tests.
  std::string to_string(CtxId c) const;

 private:
  struct Entry {
    CtxId parent;
    pag::CallSiteId site;
    std::uint32_t depth;
  };

  static constexpr unsigned kChunkBits = 12;                    // 4096 entries/chunk
  static constexpr std::size_t kChunkSize = 1u << kChunkBits;
  static constexpr std::size_t kMaxChunks = 1u << 16;           // up to ~268M contexts

  using Chunk = std::array<Entry, kChunkSize>;

  const Entry& entry(CtxId c) const {
    const std::uint32_t v = c.value();
    const Chunk* chunk = chunks_[v >> kChunkBits].load(std::memory_order_acquire);
    PARCFL_CHECK_MSG(chunk != nullptr,
                     "CtxId from a different ContextTable (jmp stores are only "
                     "meaningful with the table they were built against; use "
                     "cfl/persist.hpp to transfer state)");
    return (*chunk)[v & (kChunkSize - 1)];
  }

  Entry* slot_for(std::uint32_t id);  // creates the chunk if needed

  std::uint32_t max_depth_;
  const std::uint64_t generation_;         // distinguishes tables in TL caches
  std::atomic<std::uint64_t> next_id_{1};  // 0 is the empty context
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::vector<std::unique_ptr<Chunk>> owned_chunks_;  // guarded by chunks_mu_
  support::SpinLock chunks_mu_;
  support::ShardedMap<std::uint64_t, std::uint32_t> intern_;
};

}  // namespace parcfl::cfl
