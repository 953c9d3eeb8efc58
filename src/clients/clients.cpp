#include "clients/clients.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/union_find.hpp"

namespace parcfl::clients {

using pag::NodeId;

PointsToTable PointsToTable::from_engine_result(const cfl::EngineResult& result) {
  PARCFL_CHECK_MSG(result.objects.size() == result.outcomes.size(),
                   "engine run must use EngineOptions::collect_objects");
  PointsToTable table;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    Row row;
    row.objects = result.objects[i];
    row.complete = result.outcomes[i].status == cfl::QueryStatus::kComplete;
    table.rows_.emplace(result.outcomes[i].var.value(), std::move(row));
  }
  return table;
}

PointsToTable PointsToTable::from_solver(cfl::Solver& solver,
                                         std::span<const NodeId> vars) {
  PointsToTable table;
  for (const NodeId v : vars) {
    const auto r = solver.points_to(v);
    Row row;
    row.objects = r.nodes();
    row.complete = r.complete();
    table.rows_.emplace(v.value(), std::move(row));
  }
  return table;
}

std::span<const NodeId> PointsToTable::points_to(NodeId v) const {
  const auto it = rows_.find(v.value());
  if (it == rows_.end()) return {};
  return it->second.objects;
}

bool PointsToTable::is_complete(NodeId v) const {
  const auto it = rows_.find(v.value());
  return it != rows_.end() && it->second.complete;
}

cfl::Solver::AliasAnswer PointsToTable::may_alias(NodeId a, NodeId b) const {
  const auto pa = points_to(a);
  const auto pb = points_to(b);
  std::vector<NodeId> common;
  std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(),
                        std::back_inserter(common));
  if (!common.empty()) return cfl::Solver::AliasAnswer::kMay;
  if (is_complete(a) && is_complete(b)) return cfl::Solver::AliasAnswer::kNo;
  return cfl::Solver::AliasAnswer::kUnknown;
}

std::vector<std::vector<NodeId>> PointsToTable::alias_classes() const {
  // Dense-index the queried variables, then union those sharing any object.
  std::vector<NodeId> vars;
  vars.reserve(rows_.size());
  for (const auto& [v, row] : rows_) vars.push_back(NodeId(v));
  std::sort(vars.begin(), vars.end());

  std::unordered_map<std::uint32_t, std::uint32_t> index;
  for (std::uint32_t i = 0; i < vars.size(); ++i) index[vars[i].value()] = i;

  support::UnionFind uf(vars.size());
  std::unordered_map<std::uint32_t, std::uint32_t> first_holder;  // object -> var idx
  for (std::uint32_t i = 0; i < vars.size(); ++i) {
    for (const NodeId o : points_to(vars[i])) {
      const auto [it, fresh] = first_holder.emplace(o.value(), i);
      if (!fresh) uf.unite(it->second, i);
    }
  }

  std::unordered_map<std::uint32_t, std::vector<NodeId>> by_root;
  for (std::uint32_t i = 0; i < vars.size(); ++i)
    by_root[uf.find(i)].push_back(vars[i]);

  std::vector<std::vector<NodeId>> classes;
  classes.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    classes.push_back(std::move(members));
  }
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  return classes;
}

std::vector<CastReport> check_casts(const frontend::Program& program,
                                    const frontend::LoweredProgram& lowered,
                                    const pag::Pag& analysis_pag,
                                    const PointsToTable& table,
                                    std::span<const NodeId> remap) {
  auto translate = [&](NodeId n) {
    return remap.empty() ? n : remap[n.value()];
  };

  std::vector<CastReport> reports;
  reports.reserve(lowered.casts.size());
  for (const frontend::CastSite& cast : lowered.casts) {
    const NodeId src = translate(cast.src);
    CastReport report{cast, CastVerdict::kSafe, NodeId::invalid()};
    if (!table.is_complete(src)) {
      report.verdict = CastVerdict::kUnknown;
    } else {
      for (const NodeId o : table.points_to(src)) {
        const pag::TypeId object_type = analysis_pag.node(o).type;
        if (!object_type.valid() ||
            !program.is_subtype(object_type, cast.target)) {
          report.verdict = CastVerdict::kMayFail;
          report.witness = o;
          break;
        }
      }
    }
    reports.push_back(report);
  }
  return reports;
}

std::vector<NullnessReport> check_dereferences(
    const pag::Pag& pag, const PointsToTable& table,
    std::span<const NodeId> null_objects) {
  std::vector<NullnessReport> reports;
  std::unordered_map<std::uint32_t, bool> seen;
  for (const pag::Edge& e : pag.edges()) {
    if (e.kind != pag::EdgeKind::kLoad && e.kind != pag::EdgeKind::kStore)
      continue;
    const NodeId base = e.kind == pag::EdgeKind::kLoad ? e.src : e.dst;
    if (!pag.node(base).is_application) continue;
    if (!seen.emplace(base.value(), true).second) continue;

    NullnessReport r{base, false, table.is_complete(base)};
    const auto pts = table.points_to(base);
    for (const NodeId n : null_objects) {
      if (std::binary_search(pts.begin(), pts.end(), n)) {
        r.may_be_null = true;
        break;
      }
    }
    reports.push_back(r);
  }
  return reports;
}

namespace {

FlowVerdict flow_verdict(const cfl::QueryResult& r, NodeId target) {
  if (r.contains(target)) return FlowVerdict::kFlows;
  return r.complete() ? FlowVerdict::kNoFlow : FlowVerdict::kUnknown;
}

}  // namespace

FlowVerdict taint_flows(cfl::Solver& solver, NodeId source, NodeId sink) {
  cfl::QueryResult r = solver.taint(source);
  return flow_verdict(r, sink);
}

FlowVerdict depends_on(cfl::Solver& solver, NodeId x, NodeId y) {
  cfl::QueryResult r = solver.depends(x);
  return flow_verdict(r, y);
}

ModRefAnalysis::ModRefAnalysis(const pag::Pag& pag, const PointsToTable& table) {
  reads_.resize(pag.method_count());
  writes_.resize(pag.method_count());

  for (const pag::Edge& e : pag.edges()) {
    const bool is_load = e.kind == pag::EdgeKind::kLoad;
    const bool is_store = e.kind == pag::EdgeKind::kStore;
    if (!is_load && !is_store) continue;
    const NodeId base = is_load ? e.src : e.dst;
    const pag::MethodId m = pag.node(base).method;
    if (!m.valid()) continue;
    auto& target = is_load ? reads_[m.value()] : writes_[m.value()];
    for (const NodeId o : table.points_to(base)) target.push_back(cell(o, e.aux));
  }
  for (auto& v : reads_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : writes_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
}

std::span<const std::uint64_t> ModRefAnalysis::reads(pag::MethodId m) const {
  return reads_[m.value()];
}
std::span<const std::uint64_t> ModRefAnalysis::writes(pag::MethodId m) const {
  return writes_[m.value()];
}

namespace {

bool intersects(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) ++i;
    else ++j;
  }
  return false;
}

}  // namespace

bool ModRefAnalysis::interferes(pag::MethodId a, pag::MethodId b) const {
  return intersects(writes(a), writes(b)) || intersects(writes(a), reads(b)) ||
         intersects(reads(a), writes(b));
}

}  // namespace parcfl::clients
