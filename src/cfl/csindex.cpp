#include "cfl/csindex.hpp"

#include <algorithm>
#include <limits>

namespace parcfl::cfl {

namespace {

bool root_less(const CsIndex::Entry& e, pag::NodeId root) {
  return e.root.value() < root.value();
}

}  // namespace

const CsIndex::Entry* CsIndex::find(pag::NodeId root) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), root, root_less);
  if (it == entries_.end() || it->root != root) return nullptr;
  return &*it;
}

CsIndexStats CsIndex::stats() const {
  CsIndexStats s;
  s.entries = entries_.size();
  s.targets = targets_.size();
  s.revision = revision_;
  s.memory_bytes = entries_.capacity() * sizeof(Entry) +
                   targets_.capacity() * sizeof(pag::NodeId);
  return s;
}

bool CsIndex::record(pag::NodeId root, std::span<const pag::NodeId> objects,
                     std::uint64_t cost) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (cost > kMax) return false;
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), root, root_less);
  if (it != entries_.end() && it->root == root) {
    it->cost = std::min(it->cost, static_cast<std::uint32_t>(cost));
    return false;
  }
  if (entries_.size() >= max_entries_ ||
      targets_.size() + objects.size() > kMax)
    return false;
  const Entry e{root, static_cast<std::uint32_t>(targets_.size()),
                static_cast<std::uint32_t>(objects.size()),
                static_cast<std::uint32_t>(cost)};
  entries_.insert(it, e);
  targets_.insert(targets_.end(), objects.begin(), objects.end());
  return true;
}

std::size_t CsIndex::prune(std::span<const std::uint8_t> cone,
                           std::uint32_t revision) {
  revision_ = revision;
  std::vector<pag::NodeId> pool;
  pool.reserve(targets_.size());
  std::size_t kept = 0;
  for (const Entry& e : entries_) {
    const std::uint32_t root = e.root.value();
    if (root >= cone.size() || cone[root] != 0) continue;
    const auto run = targets(e);
    Entry moved = e;
    moved.target_begin = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), run.begin(), run.end());
    entries_[kept++] = moved;
  }
  const std::size_t dropped = entries_.size() - kept;
  entries_.resize(kept);
  targets_ = std::move(pool);
  return dropped;
}

}  // namespace parcfl::cfl
