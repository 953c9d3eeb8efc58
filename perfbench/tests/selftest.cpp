// Self-test of the benchmark harness: seeded streams and deltas are
// reproducible, churn edits revert, the percentile helper reports the right
// value and sample count, and every metric name is well formed and matches
// BENCHMARK.json. Run through `python3 perfbench/run.py --selftest`, or as
// `perfbench_selftest [path/to/BENCHMARK.json]`.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lower.hpp"
#include "harness.hpp"
#include "pag/collapse.hpp"
#include "pag/delta.hpp"
#include "synth/benchmarks.hpp"
#include "synth/generator.hpp"

namespace {

using namespace perfbench;
namespace pag = parcfl::pag;

int failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

pag::Pag small_graph() {
  auto cfg = parcfl::synth::config_for(parcfl::synth::benchmark_spec("tomcat"),
                                       1.0);
  return pag::collapse_assign_cycles(
             parcfl::frontend::lower(parcfl::synth::generate(cfg)).pag)
      .pag;
}

std::string stream_text(const std::vector<Req>& stream) {
  std::string out;
  for (const Req& r : stream) out += request_line(r, "d") + "\n";
  return out;
}

std::string deltas_text(const pag::Pag& g, std::uint64_t seed) {
  const auto edits = make_edits(g, seed);
  std::ostringstream os;
  for (std::uint32_t k = 1; k <= 2 * kEditCount; ++k)
    pag::write_delta(os, update_delta(g, edits, k));
  return os.str();
}

void streams_are_seeded(const pag::Pag& g) {
  std::vector<std::uint32_t> roots(500);
  for (std::uint32_t i = 0; i < roots.size(); ++i) roots[i] = 3 * i + 1;
  StreamSpec spec;
  spec.length = 5000;
  spec.update_every = 50;
  spec.seed = 7;
  const std::string a = stream_text(make_stream(roots, spec));
  CHECK(a == stream_text(make_stream(roots, spec)));
  spec.seed = 8;
  CHECK(a != stream_text(make_stream(roots, spec)));

  // The read mix and update cadence.
  spec.seed = 7;
  const StreamCounts c = count_stream(make_stream(roots, spec), 5000);
  CHECK(c.update == 100);
  CHECK(c.query + c.alias + c.taint + c.depends == 4900);
  CHECK(c.query > 3200 && c.query < 3650);  // ~70% of reads
  CHECK(c.alias > 600 && c.alias < 870);    // ~15%
  CHECK(c.distinct_roots > 0 && c.distinct_roots <= roots.size());

  CHECK(deltas_text(g, 7) == deltas_text(g, 7));
  CHECK(deltas_text(g, 7) != deltas_text(g, 8));
}

std::vector<pag::Edge> sorted_edges(const pag::Pag& g) {
  std::vector<pag::Edge> edges(g.edges().begin(), g.edges().end());
  std::sort(edges.begin(), edges.end(), [](const pag::Edge& x, const pag::Edge& y) {
    return std::tie(x.kind, x.dst, x.src, x.aux) <
           std::tie(y.kind, y.dst, y.src, y.aux);
  });
  return edges;
}

void churn_edits_revert(const pag::Pag& g) {
  const auto edits = make_edits(g, 5);
  CHECK(edits.size() == kEditCount);
  const auto start = sorted_edges(g);
  pag::Pag current = g;
  for (std::uint32_t k = 1; k <= 2 * kEditCount + 2; ++k) {
    std::string error;
    auto next = pag::apply_delta(current, update_delta(g, edits, k), nullptr,
                                 &error);
    CHECK(next.has_value());
    if (!next) {
      std::fprintf(stderr, "update %u: %s\n", k, error.c_str());
      return;
    }
    current = std::move(*next);
    CHECK(current.node_count() == g.node_count());
    if (k % 2 == 1) {
      CHECK(current.edge_count() > g.edge_count());
    } else {
      CHECK(current.edge_count() == g.edge_count());
      CHECK(sorted_edges(current) == start);
    }
  }
}

void percentiles() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  CHECK(percentile(xs, 0.50) == 50);
  CHECK(percentile(xs, 0.90) == 90);
  CHECK(percentile(xs, 0.99) == 99);
  CHECK(percentile(xs, 1.00) == 100);
  CHECK(samples_beyond(100, 0.99) == 1);
  CHECK(samples_beyond(100, 0.90) == 10);
  CHECK(percentile({}, 0.5) == 0);
  CHECK(samples_beyond(0, 0.5) == 0);

  // p99 of 100 samples has one sample beyond it: fall back to p90.
  Tail t = tail_percentile(xs, 0.99);
  CHECK(t.q == 0.90 && t.value == 90 && t.beyond == 10);
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  t = tail_percentile(big, 0.99);
  CHECK(t.q == 0.99 && t.value == 990 && t.beyond == 10);
  // Too few samples for any tail: the median.
  t = tail_percentile({1, 2, 3}, 0.99);
  CHECK(t.q == 0.50 && t.value == 2);

  // A slow stretch of a run shows in its tail: 20% of the requests 100x
  // slower gives a p99 of 100, with every sample beyond it counted.
  std::vector<double> run(5000, 1.0);
  for (int i = 2000; i < 3000; ++i) run[i] = 100.0;
  const Summary slow = summarize(run, 0.99);
  CHECK(slow.count == 5000 && slow.p50 == 1.0);
  CHECK(slow.tail.q == 0.99 && slow.tail.value == 100.0 &&
        slow.tail.beyond == 50);

  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  const Summary s = summarize(shuffled, 0.99);
  CHECK(s.count == 5 && s.p50 == 3);
  CHECK(median({4, 1, 3, 2}) == 2);  // nearest rank: the lower middle
}

void metric_names(const char* benchmark_json) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& m : *list) {
      CHECK(valid_metric_name(m.name));
      CHECK(seen.insert(m.name).second);
      CHECK(!m.unit.empty() && m.unit.size() <= 16);
    }
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("p50 ms"));
  CHECK(!valid_metric_name("a/b"));
  CHECK(valid_metric_name("service.call_ms_p50"));

  MetricSet set;
  set.set("x.y", 1.25, "ms");
  set.set("z", 3, "count");
  CHECK(set.json() ==
        "{\"x.y\": {\"value\": 1.25, \"unit\": \"ms\"}, \"z\": {\"value\": 3, "
        "\"unit\": \"count\"}}");

  if (benchmark_json == nullptr) return;
  std::ifstream in(benchmark_json);
  CHECK(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // The names listed under "end_to_end" and "per_layer" must be exactly the
  // harness catalogs, so the printed metrics and the file never drift.
  auto names_in = [&](const std::string& key) {
    std::set<std::string> out;
    const auto at = json.find("\"" + key + "\"");
    if (at == std::string::npos) return out;
    const auto end = json.find(']', at);
    const std::string section = json.substr(at, end - at);
    static const std::regex name("\"name\"\\s*:\\s*\"([^\"]*)\"");
    for (auto it = std::sregex_iterator(section.begin(), section.end(), name);
         it != std::sregex_iterator(); ++it) {
      CHECK(valid_metric_name((*it)[1]));
      out.insert((*it)[1]);
    }
    return out;
  };
  auto catalog = [](const std::vector<MetricSpec>& list) {
    std::set<std::string> out;
    for (const MetricSpec& m : list) out.insert(m.name);
    return out;
  };
  CHECK(names_in("end_to_end") == catalog(end_to_end_metrics()));
  CHECK(names_in("per_layer") == catalog(per_layer_metrics()));
}

}  // namespace

int main(int argc, char** argv) {
  const pag::Pag g = small_graph();
  streams_are_seeded(g);
  churn_edits_revert(g);
  percentiles();
  metric_names(argc > 1 ? argv[1] : nullptr);
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
