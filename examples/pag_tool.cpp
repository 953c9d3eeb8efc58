// pag_tool — command-line driver around the .pag text format, the seam where
// a real Java frontend (e.g. a Soot export) plugs into parcfl.
//
//   pag_tool gen <benchmark> <file.pag> [scale] [--collapse]
//                                                 generate a Table I workload
//                                                 (--collapse: write the
//                                                 cycle-collapsed graph, the
//                                                 id space bench harnesses
//                                                 replay against)
//   pag_tool compile <file.jir> <file.pag>        compile .jir source
//   pag_tool stats <file.pag>                     node/edge/kind statistics
//   pag_tool validate <file.pag>                  Fig. 1 well-formedness
//   pag_tool query <file.pag> <node-id>...        demand points-to queries
//   pag_tool reduce <in.pag> <out.pag> [--compact [remap.txt]]
//                                                 drop parenthesis edges that
//                                                 can never be matched
//                                                 (pag/reduce.hpp); --compact
//                                                 also drops isolated nodes
//                                                 and writes old->new ids
//   pag_tool batch <file.pag> [mode] [threads] [state-file]
//                                                 batch-run all app locals;
//                                                 mode: seq|naive|d|dq.
//                                                 With a state-file, sharing
//                                                 state is warm-loaded from it
//                                                 when present and saved back
//                                                 after the run.
//
// Example round trip:
//   $ pag_tool gen tomcat /tmp/tomcat.pag 0.5
//   $ pag_tool stats /tmp/tomcat.pag
//   $ pag_tool batch /tmp/tomcat.pag dq 8 /tmp/tomcat.state   # cold, saves
//   $ pag_tool batch /tmp/tomcat.pag dq 8 /tmp/tomcat.state   # warm start

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "parcfl.hpp"

using namespace parcfl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pag_tool gen <benchmark> <file.pag> [scale] [--collapse]\n"
               "       pag_tool compile <file.jir> <file.pag>\n"
               "       pag_tool stats <file.pag>\n"
               "       pag_tool validate <file.pag>\n"
               "       pag_tool query <file.pag> <node-id>...\n"
               "       pag_tool reduce <in.pag> <out.pag> [--compact [remap.txt]]\n"
               "       pag_tool batch <file.pag> [seq|naive|d|dq] [threads]\n"
               "                      [state-file]\n");
  return 2;
}

std::optional<pag::Pag> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "pag_tool: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  auto pag = pag::read_pag(in, &error);
  if (!pag) std::fprintf(stderr, "pag_tool: parse error: %s\n", error.c_str());
  return pag;
}

std::vector<pag::NodeId> app_locals(const pag::Pag& pag) {
  std::vector<pag::NodeId> out;
  for (std::uint32_t n = 0; n < pag.node_count(); ++n) {
    const pag::NodeId id(n);
    if (pag.kind(id) == pag::NodeKind::kLocal && pag.node(id).is_application)
      out.push_back(id);
  }
  return out;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) return usage();
  bool collapse = false;
  double scale = 1.0;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--collapse") == 0)
      collapse = true;
    else
      scale = std::atof(argv[i]);
  }
  const auto program =
      synth::generate(synth::config_for(synth::benchmark_spec(argv[2]), scale));
  const auto lowered = frontend::lower(program);
  std::ofstream out(argv[3]);
  std::uint32_t nodes = lowered.pag.node_count();
  std::uint32_t edges = lowered.pag.edge_count();
  if (collapse) {
    // The collapsed graph is what bench harnesses (parcfl_loadgen) build
    // in-process, so a file written with --collapse shares their node id
    // space — required when a loadgen replay connects to a server over this
    // file and both must agree on ids.
    const auto collapsed = pag::collapse_assign_cycles(lowered.pag);
    nodes = collapsed.pag.node_count();
    edges = collapsed.pag.edge_count();
    pag::write_pag(out, collapsed.pag);
  } else {
    pag::write_pag(out, lowered.pag);
  }
  std::printf("wrote %s: %u nodes, %u edges, %zu batch queries\n", argv[3],
              nodes, edges, lowered.queries.size());
  return 0;
}

int cmd_compile(int argc, char** argv) {
  if (argc < 4) return usage();
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "pag_tool: cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  frontend::ParseError error;
  auto program = frontend::parse_jir(buffer.str(), &error);
  if (!program) {
    std::fprintf(stderr, "pag_tool: %s: %s\n", argv[2], error.to_string().c_str());
    return 1;
  }
  frontend::LowerOptions lo;
  lo.record_names = true;
  const auto lowered = frontend::lower(*program, lo);
  std::ofstream out(argv[3]);
  pag::write_pag(out, lowered.pag);
  std::printf("compiled %s: %zu methods, %zu casts -> %s (%u nodes, %u edges, "
              "%zu batch queries)\n",
              argv[2], program->methods().size(), lowered.casts.size(), argv[3],
              lowered.pag.node_count(), lowered.pag.edge_count(),
              lowered.queries.size());
  return 0;
}

int cmd_stats(const pag::Pag& pag) {
  std::uint32_t locals = 0, globals = 0, objects = 0;
  for (std::uint32_t n = 0; n < pag.node_count(); ++n) {
    switch (pag.kind(pag::NodeId(n))) {
      case pag::NodeKind::kLocal: ++locals; break;
      case pag::NodeKind::kGlobal: ++globals; break;
      case pag::NodeKind::kObject: ++objects; break;
    }
  }
  std::printf("nodes: %u (%u locals, %u globals, %u objects)\n",
              pag.node_count(), locals, globals, objects);
  std::printf("edges: %u\n", pag.edge_count());
  for (unsigned k = 0; k < pag::kEdgeKindCount; ++k)
    std::printf("  %-8s %u\n", pag::to_string(static_cast<pag::EdgeKind>(k)),
                pag.edge_count_of_kind(static_cast<pag::EdgeKind>(k)));
  std::printf("fields: %u, call sites: %u, types: %u, methods: %u\n",
              pag.field_count(), pag.call_site_count(), pag.type_count(),
              pag.method_count());
  std::printf("approx. memory: %zu KB\n", pag.memory_bytes() / 1024);
  return 0;
}

int cmd_validate(const pag::Pag& pag) {
  const auto errors = pag::validate(pag);
  if (errors.empty()) {
    std::printf("OK: graph is well-formed (Fig. 1 rules)\n");
    return 0;
  }
  for (const auto& e : errors) std::printf("violation: %s\n", e.c_str());
  return 1;
}

int cmd_query(const pag::Pag& pag, int argc, char** argv) {
  cfl::ContextTable contexts;
  cfl::SolverOptions options;
  cfl::Solver solver(pag, contexts, nullptr, options);
  for (int i = 3; i < argc; ++i) {
    const auto id = static_cast<std::uint32_t>(std::strtoul(argv[i], nullptr, 10));
    if (id >= pag.node_count() || !pag.is_variable(pag::NodeId(id))) {
      std::printf("node %u: not a variable\n", id);
      continue;
    }
    const auto r = solver.points_to(pag::NodeId(id));
    std::printf("pts(%u) = {", id);
    bool first = true;
    for (const auto o : r.nodes()) {
      std::printf("%s%u", first ? "" : ", ", o.value());
      first = false;
    }
    std::printf("}%s\n", r.complete() ? "" : " (budget exhausted)");
  }
  return 0;
}

void print_reduce_stats(const pag::ReduceStats& stats) {
  std::printf("edges: %u -> %u (%u removed, %.1f%%)\n", stats.edges_before,
              stats.edges_after(), stats.edges_removed,
              stats.edges_before == 0
                  ? 0.0
                  : 100.0 * stats.edges_removed / stats.edges_before);
  for (unsigned k = 0; k < pag::kEdgeKindCount; ++k)
    if (stats.removed_by_kind[k] != 0)
      std::printf("  -%-8s %u\n", pag::to_string(static_cast<pag::EdgeKind>(k)),
                  stats.removed_by_kind[k]);
  std::printf("unproductive vars: %u, dead fields: %u\n",
              stats.unproductive_nodes, stats.dead_fields);
}

int cmd_reduce(const pag::Pag& pag, int argc, char** argv) {
  if (argc < 4) return usage();
  const bool compact = argc > 4 && std::strcmp(argv[4], "--compact") == 0;
  std::ofstream out(argv[3]);
  if (!out) {
    std::fprintf(stderr, "pag_tool: cannot write %s\n", argv[3]);
    return 1;
  }
  if (!compact) {
    pag::ReduceStats stats;
    const pag::Pag reduced = pag::reduce_unmatched_parens(pag, &stats);
    pag::write_pag(out, reduced);
    print_reduce_stats(stats);
    std::printf("wrote %s (node ids preserved)\n", argv[3]);
    return 0;
  }
  const pag::ReduceResult result = pag::reduce_and_compact(pag);
  pag::write_pag(out, result.pag);
  print_reduce_stats(result.stats);
  std::printf("wrote %s (%u isolated nodes dropped)\n", argv[3],
              result.stats.nodes_dropped);
  if (argc > 5) {
    std::ofstream remap_out(argv[5]);
    if (!remap_out) {
      std::fprintf(stderr, "pag_tool: cannot write %s\n", argv[5]);
      return 1;
    }
    // One line per original node: "<old-id> <new-id>", -1 when dropped.
    for (std::uint32_t n = 0; n < result.remap.size(); ++n) {
      const pag::NodeId mapped = result.remap[n];
      remap_out << n << ' '
                << (mapped.valid() ? static_cast<long long>(mapped.value())
                                   : -1LL)
                << '\n';
    }
    std::printf("wrote remap %s\n", argv[5]);
  }
  return 0;
}

int cmd_batch(const pag::Pag& raw, int argc, char** argv) {
  cfl::EngineOptions options;
  options.mode = cfl::Mode::kDataSharingScheduling;
  if (argc > 3) {
    const std::string mode = argv[3];
    if (mode == "seq") options.mode = cfl::Mode::kSequential;
    else if (mode == "naive") options.mode = cfl::Mode::kNaive;
    else if (mode == "d") options.mode = cfl::Mode::kDataSharing;
    else if (mode == "dq") options.mode = cfl::Mode::kDataSharingScheduling;
    else return usage();
  }
  options.threads = argc > 4
                        ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10))
                        : 8;
  options.solver.budget = 100'000;

  auto collapsed = pag::collapse_assign_cycles(raw);
  std::vector<pag::NodeId> queries;
  for (const pag::NodeId q : app_locals(raw))
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());

  cfl::ContextTable contexts;
  cfl::JmpStore store;
  const char* state_path = argc > 5 ? argv[5] : nullptr;
  if (state_path != nullptr && std::ifstream(state_path)) {
    std::string error;
    if (cfl::load_sharing_state_file_v3(state_path, collapsed.pag, contexts,
                                        store, cfl::StateLoadMode::kAuto,
                                        &error))
      std::printf("warm start: loaded %zu jmp entries from %s\n",
                  store.entry_count(), state_path);
    else
      std::fprintf(stderr, "pag_tool: ignoring state (%s)\n", error.c_str());
  }

  cfl::Engine engine(collapsed.pag, options);
  const auto result = engine.run(queries, contexts, store);

  if (state_path != nullptr) {
    // Crash-safe write (temp file + fsync + rename): a crash mid-save leaves
    // the previous state file intact for the next warm start.
    std::string error;
    if (cfl::save_sharing_state_file_v3(state_path, collapsed.pag, contexts,
                                        store, &error))
      std::printf("saved sharing state to %s (%zu entries)\n", state_path,
                  store.entry_count());
    else
      std::fprintf(stderr, "pag_tool: state save failed: %s\n", error.c_str());
  }

  std::printf("%s with %u threads: %zu queries in %.3fs\n",
              to_string(options.mode), options.threads, queries.size(),
              result.wall_seconds);
  std::printf("counters: %s\n", result.totals.to_string().c_str());
  std::printf("jmp edges: %" PRIu64 " finished, %" PRIu64
              " unfinished; makespan %" PRIu64 " steps\n",
              result.jmp_stats.finished_edges, result.jmp_stats.unfinished_edges,
              result.makespan_steps());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "compile") return cmd_compile(argc, argv);

  const auto pag = load(argv[2]);
  if (!pag) return 1;
  if (cmd == "stats") return cmd_stats(*pag);
  if (cmd == "validate") return cmd_validate(*pag);
  if (cmd == "query") return cmd_query(*pag, argc, argv);
  if (cmd == "reduce") return cmd_reduce(*pag, argc, argv);
  if (cmd == "batch") return cmd_batch(*pag, argc, argv);
  return usage();
}
