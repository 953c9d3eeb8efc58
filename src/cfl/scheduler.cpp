#include "cfl/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "support/check.hpp"
#include "support/scc.hpp"
#include "support/union_find.hpp"

namespace parcfl::cfl {

using pag::EdgeKind;
using pag::NodeId;
using pag::Pag;

namespace {

bool is_direct_kind(EdgeKind k) {
  return k == EdgeKind::kAssignLocal || k == EdgeKind::kAssignGlobal ||
         k == EdgeKind::kParam || k == EdgeKind::kRet;
}

}  // namespace

std::vector<std::uint32_t> compute_type_levels(const Pag& pag) {
  const std::uint32_t type_count = pag.type_count();
  std::vector<std::uint32_t> levels(type_count, 1);
  if (type_count == 0) return levels;

  // Containment edges observed from heap accesses: a store q.f = y means
  // type(q) holds values of type(y); a load x = p.f means type(p) yields
  // values of type(x). Both approximate FT(t) of §III-C2.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const pag::Edge& e : pag.edges()) {
    if (e.kind != EdgeKind::kStore && e.kind != EdgeKind::kLoad) continue;
    const NodeId base = e.kind == EdgeKind::kStore ? e.dst : e.src;
    const NodeId value = e.kind == EdgeKind::kStore ? e.src : e.dst;
    const pag::TypeId tb = pag.node(base).type;
    const pag::TypeId tv = pag.node(value).type;
    if (tb.valid() && tv.valid() && tb != tv)
      edges.emplace_back(tb.value(), tv.value());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const auto g = support::CsrGraph::from_edges(type_count, edges);
  const auto scc = support::strongly_connected_components(g);
  const auto dag = support::condense(g, scc);

  // Tarjan numbers components in reverse topological order: every successor
  // of component c has a smaller id, so a single increasing-id pass computes
  // L(t) = 1 + max over contained types (recursion counted once).
  std::vector<std::uint32_t> comp_level(scc.component_count, 1);
  for (std::uint32_t c = 0; c < scc.component_count; ++c) {
    std::uint32_t best = 0;
    for (std::uint32_t succ : dag.successors(c))
      best = std::max(best, comp_level[succ]);
    comp_level[c] = 1 + best;
  }
  for (std::uint32_t t = 0; t < type_count; ++t)
    levels[t] = comp_level[scc.component_of[t]];
  return levels;
}

Schedule identity_schedule(std::span<const NodeId> queries) {
  Schedule s;
  s.ordered.assign(queries.begin(), queries.end());
  s.source_index.resize(queries.size());
  s.units.reserve(queries.size());
  for (std::uint32_t i = 0; i < queries.size(); ++i) s.source_index[i] = i;
  for (std::uint32_t i = 0; i < queries.size(); ++i) s.units.emplace_back(i, i + 1);
  s.group_count = static_cast<std::uint32_t>(queries.size());
  s.mean_group_size = queries.empty() ? 0.0 : 1.0;
  return s;
}

SchedulePlan SchedulePlan::build(const Pag& pag) {
  const std::uint32_t n = pag.node_count();
  SchedulePlan plan;
  plan.revision = pag.revision();
  plan.node_count = n;

  // ---- 1. direct-relation groups (eq. 5) ---------------------------------
  support::UnionFind uf(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> direct_edges;
  for (const pag::Edge& e : pag.edges()) {
    if (!is_direct_kind(e.kind)) continue;
    uf.unite(e.dst.value(), e.src.value());
    direct_edges.emplace_back(e.src.value(), e.dst.value());  // value-flow dir
  }
  plan.group_root.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) plan.group_root[v] = uf.find(v);

  // ---- 2. connection distances: longest direct path through each node,
  //         modulo recursion (SCC condensation + DAG longest paths) ---------
  const auto g = support::CsrGraph::from_edges(n, direct_edges);
  const auto scc = support::strongly_connected_components(g);
  const auto dag = support::condense(g, scc);

  std::vector<std::uint64_t> comp_size(scc.component_count, 0);
  for (std::uint32_t v = 0; v < n; ++v) ++comp_size[scc.component_of[v]];

  // Successor ids are smaller than their sources (reverse-topological
  // numbering), so: increasing pass for longest path *starting* at a
  // component, decreasing pass for longest path *ending* at one.
  std::vector<std::uint64_t> down(scc.component_count), up(scc.component_count);
  for (std::uint32_t c = 0; c < scc.component_count; ++c) {
    std::uint64_t best = 0;
    for (std::uint32_t succ : dag.successors(c)) best = std::max(best, down[succ]);
    down[c] = comp_size[c] + best;
  }
  for (std::uint32_t c = scc.component_count; c-- > 0;) {
    if (up[c] == 0) up[c] = comp_size[c];
    for (std::uint32_t succ : dag.successors(c))
      up[succ] = std::max(up[succ] == 0 ? comp_size[succ] : up[succ],
                          up[c] + comp_size[succ]);
  }
  plan.cd.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t c = scc.component_of[v];
    plan.cd[v] = up[c] + down[c] - comp_size[c];
  }

  // ---- 3. type levels, for dependence depths ------------------------------
  plan.type_levels = compute_type_levels(pag);
  plan.level.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const pag::TypeId t = pag.node(NodeId(v)).type;
    plan.level[v] = t.valid() && t.value() < plan.type_levels.size()
                        ? plan.type_levels[t.value()]
                        : 1;
  }
  return plan;
}

std::uint64_t SchedulePlan::memory_bytes() const {
  return group_root.capacity() * sizeof(std::uint32_t) +
         cd.capacity() * sizeof(std::uint64_t) +
         level.capacity() * sizeof(std::uint32_t) +
         type_levels.capacity() * sizeof(std::uint32_t);
}

Schedule schedule_queries(const Pag& pag, std::span<const NodeId> queries,
                          SchedulingMetrics* metrics) {
  return schedule_queries(SchedulePlan::build(pag), queries, metrics);
}

Schedule schedule_queries(const SchedulePlan& plan,
                          std::span<const NodeId> queries,
                          SchedulingMetrics* metrics) {
  // Dense group ids over the query set, in first-seen order; a group's DD is
  // the min member DD, i.e. 1 / max member level.
  std::unordered_map<std::uint32_t, std::uint32_t> root_to_group;
  std::vector<std::uint32_t> group_of(queries.size());
  std::vector<std::uint32_t> group_max_level;
  std::vector<std::uint64_t> cds(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t v = queries[i].value();
    PARCFL_CHECK_MSG(v < plan.node_count, "query outside the schedule plan");
    auto [it, fresh] = root_to_group.emplace(
        plan.group_root[v], static_cast<std::uint32_t>(group_max_level.size()));
    if (fresh) group_max_level.push_back(0);
    group_of[i] = it->second;
    group_max_level[it->second] =
        std::max(group_max_level[it->second], plan.level[v]);
    cds[i] = plan.cd[v];
  }
  const auto group_count = static_cast<std::uint32_t>(group_max_level.size());

  // ---- 4. order: groups by increasing DD, members by increasing CD --------
  std::vector<std::uint32_t> query_index(queries.size());
  for (std::uint32_t i = 0; i < queries.size(); ++i) query_index[i] = i;

  std::sort(query_index.begin(), query_index.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t ga = group_of[a], gb = group_of[b];
              // Increasing DD == decreasing max level.
              if (group_max_level[ga] != group_max_level[gb])
                return group_max_level[ga] > group_max_level[gb];
              if (ga != gb) return ga < gb;
              if (cds[a] != cds[b]) return cds[a] < cds[b];
              return queries[a] < queries[b];
            });

  Schedule s;
  s.ordered.reserve(queries.size());
  for (std::uint32_t idx : query_index) s.ordered.push_back(queries[idx]);
  s.source_index = std::move(query_index);
  s.group_count = group_count;
  s.mean_group_size =
      group_count == 0 ? 0.0 : static_cast<double>(queries.size()) / group_count;

  // ---- 5. split/merge into ~M-sized work units ----------------------------
  const std::uint32_t m = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             (queries.size() + std::max(1u, group_count) - 1) /
             std::max(1u, group_count)));
  for (std::uint32_t begin = 0; begin < s.ordered.size(); begin += m)
    s.units.emplace_back(begin,
                         std::min<std::uint32_t>(begin + m,
                                                 static_cast<std::uint32_t>(s.ordered.size())));

  if (metrics != nullptr) {
    metrics->group_of = std::move(group_of);
    metrics->cd = std::move(cds);
    metrics->type_level = plan.type_levels;
    metrics->group_dd.resize(group_count);
    for (std::uint32_t gidx = 0; gidx < group_count; ++gidx)
      metrics->group_dd[gidx] = 1.0 / group_max_level[gidx];
  }
  return s;
}

}  // namespace parcfl::cfl
