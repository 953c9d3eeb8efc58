#pragma once
// Query scheduling (paper §III-C). Batch queries are:
//
//  1. *Grouped* by the `direct` relation (eq. 5) — connectivity over the
//     assignment-family edges (assign_l | assign_g | param_i | ret_i); loads
//     and stores do not connect their endpoints.
//  2. *Ordered within a group* by connection distance (CD): the length of the
//     longest direct-relation path through the variable, modulo recursion
//     (SCCs condensed); shorter CDs are issued first.
//  3. *Ordered across groups* by dependence depth (DD): DD(v) = 1 / L(type(v))
//     where L(t) is the type-containment level (modulo recursion); the DD of
//     a group is the minimum over its members, and groups are issued in
//     increasing DD (deepest types first, since consumers of their heap paths
//     depend on them).
//  4. *Load-balanced*: with M the mean group size, larger groups are split
//     and adjacent smaller groups merged so each work unit holds ~M queries,
//     reducing synchronisation on the shared work list.
//
// Groups, CDs and type levels depend on the graph alone, so they live in a
// SchedulePlan built once per graph revision (O(V + E)); scheduling a batch
// over a plan only groups, sorts and splits the batch (O(b log b)).

#include <cstdint>
#include <span>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::cfl {

struct Schedule {
  /// All queries, in issue order.
  std::vector<pag::NodeId> ordered;
  /// ordered[i] == queries[source_index[i]] — maps an issue position back to
  /// the caller's input position (per-query metadata such as request budgets
  /// and reply routing in parcfl::service follow the permutation through it).
  std::vector<std::uint32_t> source_index;
  /// Work units as [begin, end) ranges into `ordered`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> units;

  std::uint32_t group_count = 0;
  double mean_group_size = 0.0;  // the Sg statistic of Table I
};

/// Per-variable metrics, exposed for tests and the Fig. 5 bench.
struct SchedulingMetrics {
  std::vector<std::uint32_t> group_of;    // query index -> group id
  std::vector<std::uint64_t> cd;          // query index -> connection distance
  std::vector<std::uint32_t> type_level;  // type id -> L(t)
  std::vector<double> group_dd;           // group id -> dependence depth
};

/// The query-independent half of the schedule: per-node direct-relation
/// group, connection distance and type level, stamped with the revision and
/// node count of the graph it was built from.
struct SchedulePlan {
  std::uint32_t revision = 0;
  std::uint32_t node_count = 0;
  std::vector<std::uint32_t> group_root;   // node -> union-find root
  std::vector<std::uint64_t> cd;           // node -> connection distance
  std::vector<std::uint32_t> level;        // node -> L(type(node))
  std::vector<std::uint32_t> type_levels;  // type id -> L(t)

  static SchedulePlan build(const pag::Pag& pag);
  /// True when the plan was built from `pag`'s current revision.
  bool matches(const pag::Pag& pag) const {
    return revision == pag.revision() && node_count == pag.node_count();
  }
  std::uint64_t memory_bytes() const;
};

/// Compute L(t) for every type from the PAG's node typing and field uses:
/// L(t) = 1 + max over the types stored into t's fields (0 for value types),
/// with type-recursion collapsed. Field containment is recovered from the
/// graph itself: a store q.f = y adds an edge type(q) -> type(y).
std::vector<std::uint32_t> compute_type_levels(const pag::Pag& pag);

/// Produce the full §III-C schedule for `queries` (PAG variable nodes).
/// When `metrics` is non-null it is filled for inspection.
Schedule schedule_queries(const SchedulePlan& plan,
                          std::span<const pag::NodeId> queries,
                          SchedulingMetrics* metrics = nullptr);

/// Same, building a one-off plan from `pag` first.
Schedule schedule_queries(const pag::Pag& pag, std::span<const pag::NodeId> queries,
                          SchedulingMetrics* metrics = nullptr);

/// The trivial schedule used by the naive / D configurations: input order,
/// one query per work unit.
Schedule identity_schedule(std::span<const pag::NodeId> queries);

}  // namespace parcfl::cfl
