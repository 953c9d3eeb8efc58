// Observability-layer tests: the MetricsRegistry (lock-free counters, gauges
// and histograms with per-thread slabs), the TraceRing, the Prometheus text
// exposition, and the golden-trace determinism guarantee — a single-threaded
// solver run at trace_level 2 must produce byte-identical JSONL across runs.
// The scrape-while-writing stress is this suite's tsan target.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl::obs {
namespace {

// ---- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CounterAddsAndAggregates) {
  MetricsRegistry reg;
  const auto c = reg.counter("test_total", "A test counter.");
  EXPECT_EQ(reg.counter_value(c), 0u);
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.counter_value(c), 42u);
}

TEST(Metrics, CountersAreIndependent) {
  MetricsRegistry reg;
  const auto a = reg.counter("a_total", "a");
  const auto b = reg.counter("b_total", "b");
  reg.add(a, 5);
  reg.add(b, 7);
  EXPECT_EQ(reg.counter_value(a), 5u);
  EXPECT_EQ(reg.counter_value(b), 7u);
}

TEST(Metrics, GaugeSetAndMax) {
  MetricsRegistry reg;
  const auto g = reg.gauge("test_gauge", "A test gauge.");
  EXPECT_EQ(reg.gauge_value(g), 0.0);
  reg.set_gauge(g, 2.5);
  EXPECT_EQ(reg.gauge_value(g), 2.5);
  reg.set_gauge(g, 1.0);  // set overwrites, even downward
  EXPECT_EQ(reg.gauge_value(g), 1.0);
  reg.max_gauge(g, 0.5);  // max does not go down
  EXPECT_EQ(reg.gauge_value(g), 1.0);
  reg.max_gauge(g, 9.75);
  EXPECT_EQ(reg.gauge_value(g), 9.75);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  MetricsRegistry reg;
  const auto h = reg.histogram("test_ms", "A test histogram.", {1, 10, 100});
  reg.observe(h, 0.5);    // bucket le=1
  reg.observe(h, 1.0);    // le=1 (bounds are inclusive upper edges)
  reg.observe(h, 7.0);    // le=10
  reg.observe(h, 5000.0); // +Inf overflow
  const auto snap = reg.histogram_value(h);
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 0u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 7.0 + 5000.0);
}

TEST(Metrics, MultithreadedCountsAreExact) {
  MetricsRegistry reg;
  const auto c = reg.counter("mt_total", "mt");
  const auto h = reg.histogram("mt_ms", "mt", {10});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(c);
        reg.observe(h, static_cast<double>(i % 20));
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter_value(c), kThreads * kPerThread);
  const auto snap = reg.histogram_value(h);
  EXPECT_EQ(snap.count, kThreads * kPerThread);
}

// More writer threads than claimable slots: late threads hash onto shared
// slots, which must stay exact (every write is a fetch_add) — only contended.
TEST(Metrics, MoreThreadsThanSlotsStillExact) {
  MetricsRegistry reg;
  const auto c = reg.counter("crowded_total", "crowded");
  constexpr int kThreads =
      static_cast<int>(MetricsRegistry::kMaxThreads) + 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.add(c);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter_value(c), kThreads * kPerThread);
}

// Slot release at thread exit: serial short-lived threads must not exhaust
// the 64 claimable slots.
TEST(Metrics, SlotsRecycleAcrossThreadLifetimes) {
  MetricsRegistry reg;
  const auto c = reg.counter("recycle_total", "recycle");
  for (int round = 0; round < 200; ++round) {
    std::thread([&] { reg.add(c); }).join();
  }
  EXPECT_EQ(reg.counter_value(c), 200u);
}

// ---- Prometheus exposition --------------------------------------------------

/// Minimal exposition-format checker: every line is a comment or a
/// `name{labels} value` sample; every sample name was introduced by a # TYPE
/// comment; histogram series carry the right suffixes.
void check_exposition(const std::string& text,
                      std::map<std::string, std::string>& types,
                      std::vector<std::pair<std::string, double>>& samples) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, what, name;
      ls >> hash >> what >> name;
      ASSERT_TRUE(what == "HELP" || what == "TYPE") << line;
      if (what == "TYPE") {
        std::string type;
        ls >> type;
        ASSERT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        types[name] = type;
      }
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparsable value in: " << line;
    const auto brace = series.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      series = series.substr(0, brace);
    }
    samples.emplace_back(series, v);
  }
}

TEST(Metrics, PrometheusExpositionIsWellFormed) {
  MetricsRegistry reg;
  const auto c = reg.counter("obs_requests_total", "Requests.");
  const auto g = reg.gauge("obs_depth", "Depth.");
  const auto h = reg.histogram("obs_latency_ms", "Latency.", {1, 10});
  reg.add(c, 3);
  reg.set_gauge(g, 4.5);
  reg.observe(h, 0.5);
  reg.observe(h, 99.0);

  const std::string text = reg.render_prometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.back(), '\n');  // documented: no trailing newline

  std::map<std::string, std::string> types;
  std::vector<std::pair<std::string, double>> samples;
  check_exposition(text + "\n", types, samples);

  EXPECT_EQ(types["obs_requests_total"], "counter");
  EXPECT_EQ(types["obs_depth"], "gauge");
  EXPECT_EQ(types["obs_latency_ms"], "histogram");

  std::map<std::string, std::vector<double>> by_series;
  for (const auto& [name, v] : samples) by_series[name].push_back(v);
  ASSERT_EQ(by_series["obs_requests_total"].size(), 1u);
  EXPECT_EQ(by_series["obs_requests_total"][0], 3.0);
  EXPECT_EQ(by_series["obs_depth"][0], 4.5);
  // Cumulative buckets: le="1" -> 1, le="10" -> 1, le="+Inf" -> 2.
  ASSERT_EQ(by_series["obs_latency_ms_bucket"].size(), 3u);
  EXPECT_EQ(by_series["obs_latency_ms_bucket"][0], 1.0);
  EXPECT_EQ(by_series["obs_latency_ms_bucket"][1], 1.0);
  EXPECT_EQ(by_series["obs_latency_ms_bucket"][2], 2.0);
  EXPECT_EQ(by_series["obs_latency_ms_count"][0], 2.0);
  EXPECT_DOUBLE_EQ(by_series["obs_latency_ms_sum"][0], 99.5);
  // The +Inf bucket must appear literally.
  EXPECT_NE(text.find("obs_latency_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// The tsan target: writers hammer every metric kind while a scraper loops
// aggregation and rendering. Correctness bar: the scrape after the join sees
// every write, and every mid-flight scrape is monotone in the counter. The
// writers start only after the scraper's first scrape, so scrapes overlap
// writes even when the scheduler runs the writers to completion first.
TEST(Metrics, ScrapeWhileWritingIsSafeAndMonotone) {
  MetricsRegistry reg;
  const auto c = reg.counter("stress_total", "stress");
  const auto g = reg.gauge("stress_gauge", "stress");
  const auto h = reg.histogram("stress_ms", "stress", {1, 10, 100});

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 5'000;
  std::atomic<bool> stop{false};
  std::atomic<bool> scraped{false};

  std::uint64_t last = 0;
  std::uint64_t scrapes = 0;
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = reg.counter_value(c);
      EXPECT_GE(now, last);
      last = now;
      EXPECT_FALSE(reg.render_prometheus().empty());
      ++scrapes;
      scraped.store(true, std::memory_order_release);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&, t] {
      while (!scraped.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(c);
        reg.max_gauge(g, static_cast<double>(t));
        reg.observe(h, static_cast<double>(i % 200));
      }
    });

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes, 0u);
  EXPECT_EQ(reg.counter_value(c), kWriters * kPerThread);
  EXPECT_EQ(reg.histogram_value(h).count, kWriters * kPerThread);
  EXPECT_EQ(reg.gauge_value(g), static_cast<double>(kWriters - 1));
}

// ---- TraceRing --------------------------------------------------------------

TEST(Trace, EmitsInOrder) {
  TraceRing ring(8);
  ring.emit(TraceEvent::kQueryStart, 17, 0);
  ring.emit(TraceEvent::kJmpMiss, 42);
  ring.emit(TraceEvent::kQueryEnd, 100, 1);
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.size(), 3u);
  std::vector<TraceRecord> records;
  ring.snapshot_into(records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].event, TraceEvent::kQueryStart);
  EXPECT_EQ(records[0].a, 17u);
  EXPECT_EQ(records[1].event, TraceEvent::kJmpMiss);
  EXPECT_EQ(records[2].b, 1u);
}

TEST(Trace, WrapKeepsNewestWithAbsoluteSeq) {
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.emit(TraceEvent::kJmpHit, i, static_cast<std::uint32_t>(i));
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<TraceRecord> records;
  ring.snapshot_into(records);
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(records[i].a, 6 + i);
  // JSONL seq numbers stay absolute across the wrap.
  const std::string jsonl = ring.to_jsonl();
  EXPECT_NE(jsonl.find("\"seq\":6"), std::string::npos);
  EXPECT_NE(jsonl.find("\"seq\":9"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"seq\":5"), std::string::npos);
}

TEST(Trace, CapacityRoundsToPowerOfTwo) {
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(Trace, ClearResets) {
  TraceRing ring(8);
  ring.emit(TraceEvent::kQueryStart, 1);
  ring.clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.to_jsonl().empty());
}

TEST(Trace, JsonlNamesEveryEvent) {
  TraceRing ring(16);
  const TraceEvent all[] = {
      TraceEvent::kQueryStart,          TraceEvent::kQueryEnd,
      TraceEvent::kQueryStats,          TraceEvent::kDepthHighWater,
      TraceEvent::kJmpHit,              TraceEvent::kJmpMiss,
      TraceEvent::kJmpPublishFinished,  TraceEvent::kJmpPublishUnfinished,
      TraceEvent::kEarlyTermination,
  };
  for (const TraceEvent e : all) ring.emit(e, 1, 2);
  const std::string jsonl = ring.to_jsonl();
  for (const TraceEvent e : all) {
    const std::string needle =
        std::string("\"ev\":\"") + TraceRing::event_name(e) + "\"";
    EXPECT_NE(jsonl.find(needle), std::string::npos)
        << "missing " << TraceRing::event_name(e);
  }
  // No timestamps unless asked for.
  EXPECT_EQ(jsonl.find("t_ns"), std::string::npos);
}

TEST(Trace, TimestampsAppearWhenEnabled) {
  TraceRing ring(8, /*timestamps=*/true);
  ring.emit(TraceEvent::kQueryStart, 1);
  EXPECT_NE(ring.to_jsonl().find("\"t_ns\":"), std::string::npos);
}

// ---- golden trace -----------------------------------------------------------

struct Workload {
  pag::Pag pag;
  std::vector<pag::NodeId> queries;
};

Workload golden_workload() {
  synth::GeneratorConfig cfg;
  cfg.seed = 33;
  cfg.app_methods = 10;
  cfg.library_methods = 10;
  cfg.containers = 2;
  cfg.container_use_blocks = 8;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<pag::NodeId> queries;
  for (const pag::NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return Workload{std::move(collapsed.pag), std::move(queries)};
}

/// One full single-threaded sharing run at trace_level 2; returns the
/// concatenated per-query JSONL (the ring holds one query at a time).
std::string traced_run(const Workload& w) {
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::SolverOptions so;
  so.budget = 50'000;
  so.data_sharing = true;
  so.tau_finished = 10;
  so.tau_unfinished = 100;
  so.trace_level = 2;
  cfl::Solver solver(w.pag, contexts, &store, so);
  TraceRing ring(4096);
  solver.set_trace(&ring);
  std::string out;
  for (const pag::NodeId q : w.queries) {
    (void)solver.points_to(q);
    out += ring.to_jsonl();
    out += '\n';
  }
  return out;
}

TEST(GoldenTrace, SingleThreadedTraceIsByteIdenticalAcrossRuns) {
  const Workload w = golden_workload();
  const std::string first = traced_run(w);
  const std::string second = traced_run(w);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The trace is not degenerate: it has real span + jmp events.
  EXPECT_NE(first.find("\"ev\":\"query_start\""), std::string::npos);
  EXPECT_NE(first.find("\"ev\":\"query_end\""), std::string::npos);
  EXPECT_NE(first.find("\"ev\":\"jmp_"), std::string::npos);
}

TEST(GoldenTrace, TraceLevelZeroEmitsNothing) {
  const Workload w = golden_workload();
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(w.pag, contexts, nullptr, so);
  TraceRing ring(64);
  solver.set_trace(&ring);  // level 0: set_trace must refuse the ring
  EXPECT_EQ(solver.trace(), nullptr);
  (void)solver.points_to(w.queries[0]);
  EXPECT_EQ(ring.total(), 0u);
}

TEST(GoldenTrace, Level1HasSpansButNoJmpEvents) {
  const Workload w = golden_workload();
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::SolverOptions so;
  so.budget = 50'000;
  so.data_sharing = true;
  so.tau_finished = 10;
  so.tau_unfinished = 100;
  so.trace_level = 1;
  cfl::Solver solver(w.pag, contexts, &store, so);
  TraceRing ring(4096);
  solver.set_trace(&ring);
  std::string all;
  for (const pag::NodeId q : w.queries) {
    (void)solver.points_to(q);
    all += ring.to_jsonl();
    all += '\n';
  }
  EXPECT_NE(all.find("\"ev\":\"query_start\""), std::string::npos);
  EXPECT_NE(all.find("\"ev\":\"query_end\""), std::string::npos);
  EXPECT_NE(all.find("\"ev\":\"depth_high_water\""), std::string::npos);
  EXPECT_EQ(all.find("\"ev\":\"jmp_"), std::string::npos);
}

}  // namespace
}  // namespace parcfl::obs
