// Concurrency coverage for the epoch-protected sharing-state read path
// (DESIGN.md §9): EpochDomain reclamation semantics, ShardedMap readers
// racing writers and retain(), JmpStore lookups racing erase_if under a
// pin, a solver-level round stress (concurrent lookups + batched publish,
// between-batch erase_if per the invalidation contract), the ContextTable
// thread-local interning cache, and the batched-publication property tests
// (first-wins preserved; identical 4-mode outcomes vs immediate
// publication). Built for tsan: every test keeps its thread count modest and
// its invariants exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "cfl/context.hpp"
#include "cfl/engine.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "support/ebr.hpp"
#include "support/sharded_map.hpp"
#include "synth/generator.hpp"

namespace parcfl {
namespace {

using support::EpochGuard;
using support::ShardedMap;
using support::global_epoch_domain;

// ---- EpochDomain ---------------------------------------------------------

struct CountedObj {
  std::atomic<int>* freed;
};

void retire_counted(std::atomic<int>& freed) {
  global_epoch_domain().retire(new CountedObj{&freed}, [](void* p) {
    auto* obj = static_cast<CountedObj*>(p);
    obj->freed->fetch_add(1, std::memory_order_relaxed);
    delete obj;
  });
}

TEST(Ebr, ActiveGuardBlocksReclamation) {
  auto& domain = global_epoch_domain();
  std::atomic<int> freed{0};
  {
    EpochGuard guard(domain);
    retire_counted(freed);
    // The item was retired at (or after) our pinned epoch; no number of
    // collect() calls may free it while we stay pinned.
    for (int i = 0; i < 5; ++i) domain.collect();
    EXPECT_EQ(freed.load(), 0);
  }
  // Unpinned: two epoch advances put the retirement two epochs behind.
  domain.collect();
  domain.collect();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Ebr, NestedGuardsKeepTheOuterPin) {
  auto& domain = global_epoch_domain();
  std::atomic<int> freed{0};
  {
    EpochGuard outer(domain);
    retire_counted(freed);
    {
      EpochGuard inner(domain);  // nesting must not unpin on destruction
    }
    for (int i = 0; i < 5; ++i) domain.collect();
    EXPECT_EQ(freed.load(), 0) << "inner guard destruction dropped the pin";
  }
  domain.collect();
  domain.collect();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Ebr, UnpinnedRetirementsReclaimAfterTwoCollects) {
  auto& domain = global_epoch_domain();
  std::atomic<int> freed{0};
  for (int i = 0; i < 10; ++i) retire_counted(freed);
  domain.collect();
  domain.collect();
  EXPECT_EQ(freed.load(), 10);
}

// ---- ShardedMap under concurrency ---------------------------------------

TEST(ConcurrencyStress, ShardedMapReadersVsWritersAndRetain) {
  // Writers publish value = key * 3 under first-wins; readers must only ever
  // observe that value (a torn or stale-node read would surface here), while
  // the main thread periodically drops odd keys and republishes every fourth
  // key via retain() — exercising table rebuild, replacement nodes and node
  // retirement against live lock-free readers.
  ShardedMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kKeys = 512;
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_values{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::uint64_t probe = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = probe++ % kKeys;
        std::uint64_t v = 0;
        if (map.find_copy(k, v) && v != k * 3)
          bad_values.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::uint64_t k = w; k < kKeys; k += kWriters)
          map.insert_if_absent(k, k * 3);
        // Exercise the copy-on-write path too: a declined upsert must not
        // change the stored value.
        map.upsert((round++ * 7) % kKeys, [](std::uint64_t&) { return false; });
      }
    });
  }

  for (int round = 0; round < 50; ++round) {
    using Retain = ShardedMap<std::uint64_t, std::uint64_t>::Retain;
    map.retain([](std::uint64_t k, std::uint64_t&) {
      if ((k & 1) != 0) return Retain::kDrop;
      // Every fourth key: the unchanged value republished as a fresh node.
      return k % 4 == 0 ? Retain::kReplace : Retain::kKeep;
    });
    global_epoch_domain().collect();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_values.load(), 0u);
  // Quiesced: the relaxed size counter must now be exact.
  std::size_t counted = 0;
  map.for_each_copy([&](std::uint64_t, std::uint64_t) { ++counted; });
  EXPECT_EQ(map.size(), counted);
}

// ---- JmpStore lookups vs erase_if under a pin ----------------------------

TEST(ConcurrencyStress, JmpStoreLookupRacesEraseIfUnderPin) {
  // Readers hold store.pin() across lookup + record dereference while an
  // eraser drops and a writer republishes entries. EBR must keep every
  // dereferenced record alive (asan/tsan validate the claim); the payload
  // invariant (targets[0].node == node + 1) catches torn publication.
  cfl::JmpStore store;
  constexpr std::uint32_t kKeys = 256;
  auto key_of = [](std::uint32_t i) {
    return cfl::JmpStore::key(cfl::Direction::kBackward, pag::NodeId(i),
                              cfl::CtxId(0));
  };
  auto publish = [&](std::uint32_t i) {
    store.insert_finished(key_of(i), /*cost=*/100 + i,
                          {cfl::JmpTarget{pag::NodeId(i + 1), cfl::CtxId(0), i}});
    store.insert_unfinished(key_of(i), /*s=*/1000 + i);
  };
  for (std::uint32_t i = 0; i < kKeys; ++i) publish(i);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_records{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pin = store.pin();
        cfl::JmpStore::Lookup lk;
        if (store.lookup(key_of(i % kKeys), lk) && lk.finished != nullptr) {
          if (lk.finished->targets.empty() ||
              lk.finished->targets[0].node.value() != (i % kKeys) + 1)
            bad_records.fetch_add(1, std::memory_order_relaxed);
        }
        if (lk.unfinished_s != 0 && lk.unfinished_s != 1000 + i % kKeys)
          bad_records.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  threads.emplace_back([&] {  // writer: keep the store populated
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) publish(i++ % kKeys);
  });

  for (int round = 0; round < 200; ++round) {
    // Drop a rotating quarter of the key space and trim another quarter to
    // its unfinished half; erase_if collects internally.
    const std::uint32_t band = round % 4;
    store.erase_if([&](std::uint64_t k) {
      const auto node = static_cast<std::uint32_t>(k >> 33);
      if (node % 4 == band) return cfl::JmpStore::Evict::kEntry;
      if (node % 4 == (band + 2) % 4) return cfl::JmpStore::Evict::kFinished;
      return cfl::JmpStore::Evict::kKeep;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_records.load(), 0u);
}

// ---- Solver-level round stress -------------------------------------------

struct Workload {
  pag::Pag pag;
  std::vector<pag::NodeId> queries;
};

Workload medium_workload(std::uint64_t seed = 77) {
  synth::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.app_methods = 14;
  cfg.library_methods = 14;
  cfg.containers = 3;
  cfg.container_use_blocks = 12;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<pag::NodeId> queries;
  for (const pag::NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return Workload{std::move(collapsed.pag), std::move(queries)};
}

TEST(ConcurrencyStress, ConcurrentQueriesWithBetweenBatchEraseIf) {
  // The tentpole's target schedule: worker solvers hammer lock-free lookups
  // and batched publication inside a batch; between batches (quiescent, per
  // the invalidation contract) the main thread erase_if's part of the store.
  const Workload w = medium_workload();
  cfl::ContextTable contexts;
  cfl::JmpStore store;

  cfl::SolverOptions opts;
  opts.budget = 100'000;
  opts.data_sharing = true;
  opts.tau_finished = 10;
  opts.tau_unfinished = 100;
  ASSERT_TRUE(opts.batched_publication);

  constexpr int kWorkers = 4;
  std::vector<std::unique_ptr<cfl::Solver>> solvers;
  for (int t = 0; t < kWorkers; ++t)
    solvers.push_back(
        std::make_unique<cfl::Solver>(w.pag, contexts, &store, opts));

  for (int round = 0; round < 6; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        cfl::QueryResult qr;
        for (const pag::NodeId q : w.queries) solvers[t]->points_to(q, qr);
      });
    }
    for (auto& th : threads) th.join();
    // Quiescent point: no solver mid-query. Evict a rotating slice and trim
    // the next one to its unfinished halves.
    const std::uint32_t band = round % 3;
    store.erase_if([&](std::uint64_t k) {
      const std::uint32_t slice = static_cast<std::uint32_t>(k >> 33) % 3;
      if (slice == band) return cfl::JmpStore::Evict::kEntry;
      if (slice == (band + 1) % 3) return cfl::JmpStore::Evict::kFinished;
      return cfl::JmpStore::Evict::kKeep;
    });
  }

  // Sanity: sharing actually happened and the store survived the churn with
  // its O(1) size counter still agreeing with an actual walk.
  support::QueryCounters totals;
  for (const auto& s : solvers) totals.merge(s->counters());
  EXPECT_GT(totals.jmp_lookups, 0u);
  EXPECT_GT(totals.jmps_added_finished + totals.jmps_added_unfinished, 0u);
  std::size_t walked = 0;
  store.for_each_entry([&](std::uint64_t, const cfl::JmpStore::Lookup&) {
    ++walked;
  });
  EXPECT_EQ(store.entry_count(), walked);
}

// ---- ContextTable thread-local interning cache ---------------------------

TEST(ContextTableTlCache, RepeatPushesAndConcurrentInterning) {
  cfl::ContextTable table;
  const cfl::CtxId c1 = table.push(cfl::ContextTable::empty(), pag::CallSiteId(5));
  ASSERT_TRUE(c1.valid());
  // Cache hit must return the identical id, not re-intern.
  EXPECT_EQ(table.push(cfl::ContextTable::empty(), pag::CallSiteId(5)), c1);
  EXPECT_EQ(table.size(), 2u);  // empty + one interned

  // Concurrent same-chain pushes from many threads agree on one id per
  // (parent, site) — TL caches must not mint duplicates.
  constexpr int kThreads = 8;
  std::vector<cfl::CtxId> leaf(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cfl::CtxId c = cfl::ContextTable::empty();
      for (std::uint32_t site = 1; site <= 40; ++site) {
        c = table.push(c, pag::CallSiteId(site));
        c = table.push(c.valid() ? table.pop(c) : c, pag::CallSiteId(site));
      }
      leaf[t] = c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(leaf[t], leaf[0]);
  EXPECT_EQ(table.size(), 2u + 40u);  // empty, site5 chain head, 40-chain
}

TEST(ContextTableTlCache, TablesDoNotCrossTalkThroughTheCache) {
  // Same (parent, site) pushed into two tables from one thread: generation
  // checks must keep the caches apart, or table B would return A's id
  // without ever publishing an entry of its own.
  cfl::ContextTable a, b;
  const cfl::CtxId ca = a.push(cfl::ContextTable::empty(), pag::CallSiteId(9));
  const cfl::CtxId cb = b.push(cfl::ContextTable::empty(), pag::CallSiteId(9));
  ASSERT_TRUE(ca.valid());
  ASSERT_TRUE(cb.valid());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.top(ca).value(), 9u);
  EXPECT_EQ(b.top(cb).value(), 9u);
  // Alternate between tables: each flip flushes and repopulates the TL
  // cache, and ids must stay consistent throughout.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.push(cfl::ContextTable::empty(), pag::CallSiteId(9)), ca);
    EXPECT_EQ(b.push(cfl::ContextTable::empty(), pag::CallSiteId(9)), cb);
  }
}

// ---- Batched-publication property tests ----------------------------------

using OutcomeKey = std::pair<cfl::QueryStatus, std::vector<pag::NodeId>>;

std::map<std::uint32_t, OutcomeKey> outcomes_by_var(const cfl::EngineResult& r) {
  std::map<std::uint32_t, OutcomeKey> m;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    std::vector<pag::NodeId> objs = r.objects[i];
    std::sort(objs.begin(), objs.end());
    m[r.outcomes[i].var.value()] = {r.outcomes[i].status, std::move(objs)};
  }
  return m;
}

TEST(BatchedPublication, AllFourModesMatchImmediatePublication) {
  // Deferring store inserts to query end must not change any query outcome.
  // With charge_jmp_costs=false (the default) a worker that recomputes an RN
  // body instead of consuming its own not-yet-flushed shortcut charges the
  // same budget, so sequential outcomes are bit-identical and parallel modes
  // keep the same answer set they must produce under any publication timing.
  const Workload w = medium_workload();
  ASSERT_GE(w.queries.size(), 8u);

  auto run = [&](cfl::Mode mode, unsigned threads, bool batched) {
    cfl::EngineOptions o;
    o.mode = mode;
    o.threads = threads;
    o.collect_objects = true;
    o.solver.budget = 200'000;
    o.solver.tau_finished = 10;
    o.solver.tau_unfinished = 100;
    o.solver.batched_publication = batched;
    cfl::Engine engine(w.pag, o);
    return outcomes_by_var(engine.run(w.queries));
  };

  const struct {
    cfl::Mode mode;
    unsigned threads;
    const char* name;
  } configs[] = {
      {cfl::Mode::kSequential, 1, "SeqCFL"},
      {cfl::Mode::kNaive, 4, "ParCFL_naive"},
      {cfl::Mode::kDataSharing, 4, "ParCFL_D"},
      {cfl::Mode::kDataSharingScheduling, 4, "ParCFL_DQ"},
  };
  const auto baseline = run(cfl::Mode::kSequential, 1, /*batched=*/false);
  for (const auto& c : configs) {
    const auto got = run(c.mode, c.threads, /*batched=*/true);
    ASSERT_EQ(got.size(), baseline.size()) << c.name;
    for (const auto& [var, expected] : baseline) {
      const auto it = got.find(var);
      ASSERT_NE(it, got.end()) << c.name << " lost var " << var;
      EXPECT_EQ(it->second.first, expected.first)
          << c.name << " (batched) status differs for var " << var;
      EXPECT_EQ(it->second.second, expected.second)
          << c.name << " (batched) object set differs for var " << var;
    }
  }
}

TEST(BatchedPublication, FlushPreservesFirstWins) {
  // Warm the store with one solver, snapshot every entry, then run a second
  // solver over the same queries with batched publication. Its flushes race
  // no one here, but they do hit fully-populated keys — every one must lose
  // first-wins, leaving each snapshot entry bit-identical.
  const Workload w = medium_workload();
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::SolverOptions opts;
  opts.budget = 100'000;
  opts.data_sharing = true;
  opts.tau_finished = 10;
  opts.tau_unfinished = 100;

  {
    cfl::Solver warm(w.pag, contexts, &store, opts);
    cfl::QueryResult qr;
    for (const pag::NodeId q : w.queries) warm.points_to(q, qr);
  }
  ASSERT_GT(store.entry_count(), 0u);

  struct Snap {
    bool has_finished = false;
    std::uint32_t cost = 0;
    std::size_t targets = 0;
    std::uint32_t unfinished_s = 0;
  };
  std::map<std::uint64_t, Snap> snapshot;
  store.for_each_entry([&](std::uint64_t key, const cfl::JmpStore::Lookup& lk) {
    Snap s;
    if (lk.finished != nullptr) {
      s.has_finished = true;
      s.cost = lk.finished->cost;
      s.targets = lk.finished->targets.size();
    }
    s.unfinished_s = lk.unfinished_s;
    snapshot[key] = s;
  });

  cfl::Solver second(w.pag, contexts, &store, opts);
  cfl::QueryResult qr;
  for (const pag::NodeId q : w.queries) second.points_to(q, qr);

  for (const auto& [key, before] : snapshot) {
    cfl::JmpStore::Lookup lk;
    ASSERT_TRUE(store.lookup(key, lk)) << "entry vanished";
    if (before.has_finished) {
      ASSERT_NE(lk.finished, nullptr);
      EXPECT_EQ(lk.finished->cost, before.cost) << "finished entry overwritten";
      EXPECT_EQ(lk.finished->targets.size(), before.targets);
    }
    if (before.unfinished_s != 0) {
      EXPECT_EQ(lk.unfinished_s, before.unfinished_s)
          << "unfinished entry overwritten";
    }
  }
}

}  // namespace
}  // namespace parcfl
