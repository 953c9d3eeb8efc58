#include "cfl/csindex.hpp"

#include <algorithm>

namespace parcfl::cfl {

const CsIndex::Entry* CsIndex::find(std::uint64_t key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return nullptr;
  return &*it;
}

CsIndexStats CsIndex::stats() const {
  CsIndexStats s;
  s.entries = entries_.size();
  s.targets = targets_.size();
  s.build_charged_steps = build_charged_steps_;
  s.revision = revision_;
  s.memory_bytes = entries_.capacity() * sizeof(Entry) +
                   targets_.capacity() * sizeof(pag::NodeId);
  return s;
}

std::unique_ptr<const CsIndex> CsIndex::without(
    std::span<const std::uint64_t> drop_sorted,
    std::uint32_t new_revision) const {
  auto next = std::unique_ptr<CsIndex>(new CsIndex());
  next->revision_ = new_revision;
  next->build_charged_steps_ = build_charged_steps_;
  next->entries_.reserve(entries_.size());
  std::size_t di = 0;
  for (const Entry& e : entries_) {
    while (di < drop_sorted.size() && drop_sorted[di] < e.key) ++di;
    if (di < drop_sorted.size() && drop_sorted[di] == e.key) continue;
    Entry kept = e;
    kept.target_begin = static_cast<std::uint32_t>(next->targets_.size());
    next->entries_.push_back(kept);
    const auto run = targets(e);
    next->targets_.insert(next->targets_.end(), run.begin(), run.end());
  }
  return next;
}

std::unique_ptr<const CsIndex> build_csindex(
    const pag::Pag& pag, std::span<const std::uint64_t> hot_keys,
    const SolverOptions& options, const std::atomic<bool>* cancel) {
  SolverOptions opts = options;
  opts.data_sharing = false;  // cold sequential solves, private state
  opts.trace_level = 0;

  auto index = std::unique_ptr<CsIndex>(new CsIndex());
  index->revision_ = pag.revision();

  std::vector<std::uint64_t> keys(hot_keys.begin(), hot_keys.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  ContextTable contexts;
  Solver solver(pag, contexts, /*store=*/nullptr, opts);
  QueryResult result;
  std::vector<pag::NodeId> nodes;
  for (const std::uint64_t k : keys) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return nullptr;
    const std::uint32_t ctx = static_cast<std::uint32_t>(k & 0xffffffffu);
    const pag::NodeId node = CsIndex::key_node(k);
    if (ctx != ContextTable::empty().value()) continue;
    if (node.value() >= pag.node_count() || !pag.is_variable(node)) continue;
    const std::uint64_t before = solver.counters().charged_steps;
    solver.points_to(node, result);
    const std::uint64_t cost = solver.counters().charged_steps - before;
    if (result.status != QueryStatus::kComplete) continue;
    if (cost > 0xffffffffull) continue;
    nodes.clear();
    result.nodes_into(nodes);
    std::sort(nodes.begin(), nodes.end(),
              [](pag::NodeId a, pag::NodeId b) { return a.value() < b.value(); });
    CsIndex::Entry e;
    e.key = k;
    e.target_begin = static_cast<std::uint32_t>(index->targets_.size());
    e.target_len = static_cast<std::uint32_t>(nodes.size());
    e.cost = static_cast<std::uint32_t>(cost);
    index->entries_.push_back(e);
    index->targets_.insert(index->targets_.end(), nodes.begin(), nodes.end());
  }
  index->build_charged_steps_ = solver.counters().charged_steps;
  return index;
}

}  // namespace parcfl::cfl
