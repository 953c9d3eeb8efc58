// bench_update — incremental-update latency and rewarm cost.
//
// A resident session that took a program change has two options for its warm
// jmp state: selectively evict the entries whose recorded traversals could
// have crossed a changed edge (cfl::invalidate_sharing_state), or throw the
// whole store away and rewarm from scratch. This harness measures both arms
// on the same localized delta:
//
//   selective:  apply delta -> invalidate (cone-based) -> re-run all queries
//   full_clear: apply delta -> JmpStore::clear()       -> re-run all queries
//
// Both arms start from byte-identical warm state (two single-threaded warm
// runs over the same query order are deterministic), so the rewarm
// traversed-steps difference is purely the value of the entries selective
// invalidation kept whole or carried on their unfinished half. Results go to
// BENCH_update.json (same schema style as BENCH_service.json: a "context"
// object plus a "benchmarks" array).
//
//   bench_update [--out FILE]     (PARCFL_SCALE / PARCFL_BUDGET apply)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cfl/context.hpp"
#include "cfl/invalidate.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "pag/delta.hpp"
#include "support/rng.hpp"

using namespace parcfl;
using namespace parcfl::bench;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Resident-session publish policy (same as parcfl_loadgen): a long-lived
/// store amortises every shortcut, so publish aggressively.
cfl::SolverOptions update_opts() {
  cfl::SolverOptions o = solver_options();
  o.data_sharing = true;
  o.tau_finished = 1;
  o.tau_unfinished = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, o.budget / 8));
  return o;
}

support::QueryCounters run_queries(const pag::Pag& pag,
                                   cfl::ContextTable& contexts,
                                   cfl::JmpStore& store,
                                   const std::vector<pag::NodeId>& queries) {
  cfl::Solver solver(pag, contexts, &store, update_opts());
  for (const pag::NodeId q : queries) (void)solver.points_to(q);
  return solver.counters();
}

/// A localized program change: a short run of consecutive assign edges is
/// deleted (consecutive insertion order ≈ one source region in the synth
/// generator), each deleted flow is replaced by an assign into a fresh
/// local, and one fresh allocation feeds the first touched variable.
pag::Delta make_delta(const pag::Pag& pag, std::uint64_t seed) {
  std::vector<pag::Edge> assigns;
  for (const pag::Edge& e : pag.edges())
    if (e.kind == pag::EdgeKind::kAssignLocal) assigns.push_back(e);

  pag::Delta d(pag);
  if (assigns.empty()) return d;
  const std::size_t k =
      std::max<std::size_t>(1, std::min<std::size_t>(8, assigns.size() / 200));
  support::Rng rng(seed);
  const std::size_t start = rng.below(assigns.size() - k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    const pag::Edge& e = assigns[start + i];
    d.remove_edge(e.kind, e.dst, e.src, e.aux);
    const pag::NodeId t = d.add_node(pag::NodeKind::kLocal, pag.node(e.src).type,
                                     pag.node(e.src).method);
    d.add_edge(pag::EdgeKind::kAssignLocal, t, e.src);
  }
  const pag::NodeId o = d.add_node(pag::NodeKind::kObject,
                                   pag.node(assigns[start].src).type,
                                   pag.node(assigns[start].src).method);
  d.add_edge(pag::EdgeKind::kNew, assigns[start].src, o);
  return d;
}

struct Arm {
  double prep_ms = 0.0;  // invalidate (selective) or clear (full)
  support::QueryCounters rewarm;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_update.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_update [--out FILE]\n");
      return 2;
    }
  }

  const double s = scale();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_update: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"context\": {%s, \"scale\": %.2f, \"budget\": %" PRIu64
               "},\n  \"benchmarks\": [\n",
               json_context_stamp().c_str(), s, budget());

  std::printf("Incremental update study, scale=%.2f\n\n", s);
  std::printf("%-12s %9s %9s %12s %14s %14s %7s\n", "Benchmark", "apply ms",
              "inval ms", "evicted/tot", "steps sel", "steps clear", "ratio");
  print_rule(84);

  bool first = true;
  int failures = 0;
  for (const char* name : {"_202_jess", "fop"}) {
    const Workload w = build_workload(synth::benchmark_spec(name), s);

    // Two independent, deterministic warm runs: one store per arm.
    cfl::ContextTable ctx_sel, ctx_clr;
    cfl::JmpStore store_sel, store_clr;
    const auto warm = run_queries(w.pag, ctx_sel, store_sel, w.queries);
    (void)run_queries(w.pag, ctx_clr, store_clr, w.queries);

    const pag::Delta delta = make_delta(w.pag, 0x5eedu);
    pag::ApplyStats apply_stats;
    std::string error;
    const auto t_apply = Clock::now();
    const auto next = pag::apply_delta(w.pag, delta, &apply_stats, &error);
    const double apply_ms = ms_since(t_apply);
    if (!next.has_value()) {
      std::fprintf(stderr, "bench_update: apply failed on %s: %s\n", name,
                   error.c_str());
      ++failures;
      continue;
    }

    Arm sel;
    const auto t_inv = Clock::now();
    const auto inv =
        cfl::invalidate_sharing_state(w.pag, *next, delta, ctx_sel, store_sel);
    sel.prep_ms = ms_since(t_inv);
    sel.rewarm = run_queries(*next, ctx_sel, store_sel, w.queries);

    Arm clr;
    const auto t_clr = Clock::now();
    store_clr.clear();
    clr.prep_ms = ms_since(t_clr);
    clr.rewarm = run_queries(*next, ctx_clr, store_clr, w.queries);

    const double ratio =
        sel.rewarm.traversed_steps == 0
            ? 0.0
            : static_cast<double>(clr.rewarm.traversed_steps) /
                  static_cast<double>(sel.rewarm.traversed_steps);
    if (ratio < 1.0) ++failures;

    std::printf("%-12s %9.2f %9.2f %6" PRIu64 "/%-5" PRIu64 " %14" PRIu64
                " %14" PRIu64 " %6.2fx\n",
                name, apply_ms, sel.prep_ms, inv.evicted, inv.entries_before,
                sel.rewarm.traversed_steps, clr.rewarm.traversed_steps, ratio);

    std::fprintf(
        f,
        "%s    {\"name\": \"update/%s/selective\", \"apply_ms\": %.3f, "
        "\"invalidate_ms\": %.3f, \"edges_added\": %u, \"edges_removed\": %u, "
        "\"entries_before\": %" PRIu64 ", \"evicted\": %" PRIu64
        ", \"carried_unfinished\": %" PRIu64 ", \"kept\": %" PRIu64
        ", \"warm_steps\": %" PRIu64
        ", \"rewarm_steps\": %" PRIu64 ", \"rewarm_jmps_taken\": %" PRIu64
        "},\n"
        "    {\"name\": \"update/%s/full_clear\", \"clear_ms\": %.3f, "
        "\"rewarm_steps\": %" PRIu64 ", \"rewarm_jmps_taken\": %" PRIu64
        "},\n"
        "    {\"name\": \"update/%s/selective_vs_full\", \"step_ratio\": "
        "%.3f}",
        first ? "" : ",\n", name, apply_ms, sel.prep_ms,
        apply_stats.edges_added, apply_stats.edges_removed, inv.entries_before,
        inv.evicted, inv.carried_unfinished, inv.kept, warm.traversed_steps,
        sel.rewarm.traversed_steps, sel.rewarm.jmps_taken, name, clr.prep_ms,
        clr.rewarm.traversed_steps, clr.rewarm.jmps_taken, name, ratio);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
