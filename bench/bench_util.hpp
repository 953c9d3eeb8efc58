#pragma once
// Shared infrastructure for the table/figure harnesses (see DESIGN.md §4).
//
// Environment knobs (all optional):
//   PARCFL_SCALE    workload scale factor (default 1.0; Table I ratios kept)
//   PARCFL_THREADS  thread count for the "16-core" configurations (default 16)
//   PARCFL_BUDGET   per-query budget B (default 30000 at scale 1; the paper
//                   used 75000 on full-size benchmarks)
//
// Speedup reporting: the paper measures wall-clock on 16 physical cores. On
// an arbitrary host we report BOTH wall-clock and the machine-independent
// step-based speedup  seq_traversed / max_per_thread_traversed  (the
// simulated parallel makespan in the paper's own budget unit). Superlinear
// effects — the heart of the paper — come from work reduction and appear
// identically in the step domain.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "synth/benchmarks.hpp"
#include "synth/generator.hpp"

namespace parcfl::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0'
             ? static_cast<unsigned>(std::strtoul(v, nullptr, 10))
             : fallback;
}

/// Schema version stamped into every BENCH_*.json "context" object. Bump it
/// whenever a field changes meaning, so CI's committed-artifact summaries
/// stay comparable across PRs.
inline constexpr unsigned kBenchSchemaVersion = 2;

/// Git revision for benchmark provenance: PARCFL_GIT_REV wins (lets a
/// harness runner pin the value), then CI's GITHUB_SHA, then `git
/// rev-parse`, else "unknown" (e.g. running from a tarball).
inline std::string git_revision() {
  for (const char* env : {"PARCFL_GIT_REV", "GITHUB_SHA"}) {
    const char* v = std::getenv(env);
    if (v != nullptr && *v != '\0') return std::string(v).substr(0, 40);
  }
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buffer[64] = {0};
    const bool got = std::fgets(buffer, sizeof buffer, p) != nullptr;
    ::pclose(p);
    if (got) {
      std::string rev(buffer);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
      if (!rev.empty()) return rev;
    }
  }
  return "unknown";
}

/// Leading fields for every BENCH_*.json context object: stamp provenance
/// once here instead of in each emitter. Emit as
///   fprintf(f, "{\n  \"context\": {%s, ...}", json_context_stamp().c_str())
inline std::string json_context_stamp() {
  return "\"schema_version\": " + std::to_string(kBenchSchemaVersion) +
         ", \"git_rev\": \"" + git_revision() + "\"";
}

inline double scale() { return env_double("PARCFL_SCALE", 1.0); }
inline unsigned threads() { return env_unsigned("PARCFL_THREADS", 16); }
inline std::uint64_t budget() {
  // The paper used B = 75,000 on full-size graphs; 100k at scale 1 puts the
  // budget in the same regime (well above the typical query's completion
  // cost, with a small doomed tail — see EXPERIMENTS.md).
  return static_cast<std::uint64_t>(env_double("PARCFL_BUDGET", 100'000.0));
}

/// Paper-proportional solver options: τF/τU scale with the budget the same
/// way the paper's τF=100/τU=10000 relate to B=75000.
inline cfl::SolverOptions solver_options() {
  cfl::SolverOptions o;
  o.budget = budget();
  o.tau_finished = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(o.budget / 750));
  o.tau_unfinished =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(o.budget * 2 / 15));
  return o;
}

struct Workload {
  std::string name;
  pag::Pag pag;                        // assign cycles collapsed
  std::vector<pag::NodeId> queries;    // deduplicated representatives
  std::uint32_t classes = 0;
  std::uint32_t methods = 0;
  std::uint32_t raw_nodes = 0;
  std::uint32_t raw_edges = 0;
};

inline Workload build_workload(const synth::BenchmarkSpec& spec, double s) {
  const auto cfg = synth::config_for(spec, s);
  const auto program = synth::generate(cfg);
  const auto lowered = frontend::lower(program);
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);

  Workload w;
  w.name = spec.name;
  w.classes = static_cast<std::uint32_t>(program.types().size());
  w.methods = static_cast<std::uint32_t>(program.methods().size());
  w.raw_nodes = lowered.pag.node_count();
  w.raw_edges = lowered.pag.edge_count();
  w.queries.reserve(lowered.queries.size());
  for (const pag::NodeId q : lowered.queries)
    w.queries.push_back(collapsed.representative[q.value()]);
  std::sort(w.queries.begin(), w.queries.end());
  w.queries.erase(std::unique(w.queries.begin(), w.queries.end()),
                  w.queries.end());
  w.pag = std::move(collapsed.pag);
  return w;
}

inline cfl::EngineResult run_mode(const Workload& w, cfl::Mode mode,
                                  unsigned thread_count) {
  cfl::EngineOptions o;
  o.mode = mode;
  o.threads = thread_count;
  o.solver = solver_options();
  cfl::Engine engine(w.pag, o);
  return engine.run(w.queries);
}

/// Machine-independent speedup: sequential work over parallel makespan.
inline double step_speedup(const cfl::EngineResult& seq,
                           const cfl::EngineResult& par) {
  const auto makespan = par.makespan_steps();
  if (makespan == 0) return 0.0;
  return static_cast<double>(seq.totals.traversed_steps) /
         static_cast<double>(makespan);
}

inline double wall_speedup(const cfl::EngineResult& seq,
                           const cfl::EngineResult& par) {
  return par.wall_seconds > 0 ? seq.wall_seconds / par.wall_seconds : 0.0;
}

/// Geometric-mean helper used for "average speedup" rows (the paper reports
/// arithmetic averages; we print both).
inline double arithmetic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Optional machine-readable output: when PARCFL_CSV_DIR is set, each
/// harness also writes `<dir>/<name>.csv` with one row per printed row, so
/// reproduction records can be diffed and plotted without scraping stdout.
class CsvWriter {
 public:
  CsvWriter(const std::string& name, const std::string& header) {
    const char* dir = std::getenv("PARCFL_CSV_DIR");
    if (dir == nullptr || *dir == '\0') return;
    path_ = std::string(dir) + "/" + name + ".csv";
    file_ = std::fopen(path_.c_str(), "w");
    if (file_ != nullptr) std::fprintf(file_, "%s\n", header.c_str());
  }
  ~CsvWriter() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::printf("(csv written to %s)\n", path_.c_str());
    }
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool enabled() const { return file_ != nullptr; }

  void row(const std::string& line) {
    if (file_ != nullptr) std::fprintf(file_, "%s\n", line.c_str());
  }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Join values into one CSV line.
template <class... Ts>
std::string csv(const Ts&... values) {
  std::string out;
  auto append = [&](const auto& v) {
    if (!out.empty()) out += ',';
    if constexpr (std::is_convertible_v<decltype(v), std::string>) {
      out += v;
    } else {
      out += std::to_string(v);
    }
  };
  (append(values), ...);
  return out;
}

}  // namespace parcfl::bench
