// Thread-scaling study for the contention-free sharing-state read path
// (DESIGN.md §9). A Fig. 5-style curve, but sweeping the thread axis instead
// of the benchmark axis: one workload at three sizes, ParCFL_D at
// t = 1, 2, 4, ... up to the hardware concurrency, cold batch (fresh jmp
// store) and warm batch (rerun against the state the cold batch minted) at
// each point.
//
// Reported per (size, t): wall seconds, queries/s, traversed steps, the
// simulated step makespan, and two speedups vs the same size's t=1 run —
// wall-clock (machine-dependent; meaningless above the core count) and
// step-based (machine-independent; the paper's work-reduction axis). On hosts
// with fewer cores than threads the step curve is the one to read.
//
//   bench_scaling [--scale S] [--max-threads N] [--out FILE]
//
// Environment: PARCFL_BUDGET applies (PARCFL_SCALE is superseded by --scale;
// PARCFL_THREADS by --max-threads). Output: Fig. 5-style table on stdout and
// a BENCH_scaling.json in the same schema style as BENCH_update.json
// ("context" object + "benchmarks" array).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "synth/benchmarks.hpp"

using namespace parcfl;
using namespace parcfl::bench;

namespace {

struct Point {
  unsigned threads = 0;
  cfl::EngineResult cold;
  cfl::EngineResult warm;
};

std::vector<unsigned> thread_ladder(unsigned max_threads) {
  std::vector<unsigned> ladder;
  for (unsigned t = 1; t < max_threads; t *= 2) ladder.push_back(t);
  ladder.push_back(max_threads);
  return ladder;
}

double qps(std::size_t queries, double seconds) {
  return seconds > 0 ? static_cast<double>(queries) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  double base_scale = 1.0;
  unsigned max_threads = std::max(1u, std::thread::hardware_concurrency());
  std::string out_path = "BENCH_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      base_scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-threads") == 0 && i + 1 < argc) {
      max_threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--scale S] [--max-threads N] "
                   "[--out FILE]\n");
      return 2;
    }
  }
  if (base_scale <= 0 || max_threads == 0) {
    std::fprintf(stderr, "bench_scaling: bad --scale/--max-threads\n");
    return 2;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", out_path.c_str());
    return 1;
  }

  const auto& spec = synth::benchmark_spec("avrora");
  const std::vector<unsigned> ladder = thread_ladder(max_threads);
  const double size_factors[] = {0.5, 1.0, 2.0};

  std::fprintf(f,
               "{\n  \"context\": {%s, \"benchmark\": \"%s\", \"base_scale\": "
               "%.2f, \"budget\": %" PRIu64
               ", \"hardware_concurrency\": %u, \"max_threads\": %u},\n"
               "  \"benchmarks\": [\n",
               json_context_stamp().c_str(), spec.name.c_str(), base_scale,
               budget(),
               std::thread::hardware_concurrency(), max_threads);

  std::printf("Thread scaling, ParCFL_D on %s, base scale %.2f, budget %" PRIu64
              "\n\n",
              spec.name.c_str(), base_scale, budget());

  bool first = true;
  for (const double factor : size_factors) {
    const double s = base_scale * factor;
    const Workload w = build_workload(spec, s);
    std::printf("scale %.2f: %u nodes, %u edges, %zu queries\n", s,
                w.raw_nodes, w.raw_edges, w.queries.size());
    std::printf("%4s %10s %10s %12s %12s %8s %8s %10s\n", "t", "cold q/s",
                "warm q/s", "cold steps", "makespan", "wall-x", "step-x",
                "warm-x");
    print_rule(80);

    std::vector<Point> points;
    for (const unsigned t : ladder) {
      Point p;
      p.threads = t;
      cfl::EngineOptions o;
      o.mode = cfl::Mode::kDataSharing;
      o.threads = t;
      o.solver = solver_options();
      // Fresh shared state per point: the cold batch measures discovery +
      // publication, the warm rerun measures the lock-free lookup path over
      // a fully-minted store (the service steady state).
      cfl::ContextTable contexts;
      cfl::JmpStore store;
      cfl::BatchRunner runner(o, contexts, store);
      p.cold = runner.run(w.pag, w.queries);
      p.warm = runner.run(w.pag, w.queries);
      points.push_back(std::move(p));
    }

    const Point& base = points.front();  // t = 1
    for (const Point& p : points) {
      const double wall_x = wall_speedup(base.cold, p.cold);
      const double step_x = step_speedup(base.cold, p.cold);
      const double warm_x = wall_speedup(base.warm, p.warm);
      std::printf("%4u %10.0f %10.0f %12" PRIu64 " %12" PRIu64
                  " %7.2fx %7.2fx %9.2fx\n",
                  p.threads, qps(w.queries.size(), p.cold.wall_seconds),
                  qps(w.queries.size(), p.warm.wall_seconds),
                  p.cold.totals.traversed_steps, p.cold.makespan_steps(),
                  wall_x, step_x, warm_x);
      std::fprintf(
          f,
          "%s    {\"name\": \"scaling/%s/s%.2f/t%u\", \"threads\": %u, "
          "\"queries\": %zu, "
          "\"cold_wall_s\": %.6f, \"cold_qps\": %.1f, \"cold_traversed\": "
          "%" PRIu64 ", \"cold_makespan\": %" PRIu64
          ", \"warm_wall_s\": %.6f, \"warm_qps\": %.1f, \"warm_traversed\": "
          "%" PRIu64 ", \"jmp_entries\": %" PRIu64
          ", \"wall_speedup\": %.3f, \"step_speedup\": %.3f, "
          "\"warm_wall_speedup\": %.3f}",
          first ? "" : ",\n", spec.name.c_str(), s, p.threads, p.threads,
          w.queries.size(), p.cold.wall_seconds,
          qps(w.queries.size(), p.cold.wall_seconds),
          p.cold.totals.traversed_steps, p.cold.makespan_steps(),
          p.warm.wall_seconds, qps(w.queries.size(), p.warm.wall_seconds),
          p.warm.totals.traversed_steps, p.cold.jmp_stats.finished_entries,
          wall_x, step_x, warm_x);
      first = false;
    }
    std::printf("\n");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
