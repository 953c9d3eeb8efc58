#pragma once
// CsIndex — the passive reachability index behind the service's 0-step hits
// (DESIGN.md §13). It holds only answers the serving solver has already
// completed: after each batch, Session::run_batch records every points-to
// item that ended kComplete as root → (sorted objects, charged steps). No
// thread and no extra solve fill it. Entries are root-sorted (binary-searched
// at dispatch) and point into one flat target pool, so a hit is a memcpy at
// 0 charged solver steps.
//
// Serving contract: a complete answer on a graph revision is exactly the
// cold answer on it (DESIGN.md §8), whichever warm state produced it.
// Dispatch serves an entry only when the request's effective budget covers
// the entry's recorded cost — the charged steps of the solve that completed
// it — so a tight budget falls through to the solver instead of completing
// by lookup.
//
// Invalidation: an update drops exactly the entries whose root is in the jmp
// invalidation cone (cfl/invalidate.hpp). Session::update passes the cone's
// backward plane to prune(), which compacts the table in place and restamps
// it to the new revision. A dropped root is recorded again the next time the
// solver completes it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::cfl {

struct CsIndexStats {
  std::uint64_t entries = 0;
  std::uint64_t targets = 0;
  std::uint32_t revision = 0;  // PAG revision the entries answer for
  std::uint64_t memory_bytes = 0;
};

class CsIndex {
 public:
  struct Entry {
    pag::NodeId root;
    std::uint32_t target_begin;  // into the shared target pool
    std::uint32_t target_len;
    std::uint32_t cost;  // charged steps of the solve that completed it
  };

  /// An empty table answering for graph `revision`, holding at most
  /// `max_entries` roots.
  CsIndex(std::size_t max_entries, std::uint32_t revision)
      : max_entries_(max_entries), revision_(revision) {}

  /// Binary search; null on miss.
  const Entry* find(pag::NodeId root) const;

  std::span<const pag::NodeId> targets(const Entry& e) const {
    return {targets_.data() + e.target_begin, e.target_len};
  }
  std::span<const Entry> entries() const { return entries_; }
  std::uint32_t revision() const { return revision_; }
  CsIndexStats stats() const;

  /// Record `root`'s complete answer (`objects` sorted ascending), which cost
  /// `cost` charged steps. A root already present keeps its objects (a
  /// complete answer is unique on one revision) and the lower of the two
  /// costs. A new root is not recorded once the table is full, nor is a cost
  /// beyond 32 bits. Returns true when a new entry was added.
  bool record(pag::NodeId root, std::span<const pag::NodeId> objects,
              std::uint64_t cost);

  /// Drop every entry whose root `cone` marks or lies beyond, compact the
  /// target pool and restamp the table to `revision`. Returns the number of
  /// entries dropped.
  std::size_t prune(std::span<const std::uint8_t> cone, std::uint32_t revision);

 private:
  std::size_t max_entries_;
  std::vector<Entry> entries_;        // sorted by root
  std::vector<pag::NodeId> targets_;  // each entry's run sorted ascending
  std::uint32_t revision_;
};

}  // namespace parcfl::cfl
