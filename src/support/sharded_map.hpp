#pragma once
// A sharded concurrent hash map — our substitute for the JVM
// ConcurrentHashMap the paper uses to manage jmp edges (§IV-A). Keys hash to
// one of N shards; each shard publishes an immutable flat open-addressing
// slot array, so the steady-state read path is lock-free and RMW-free:
// readers pin an epoch (support/ebr.hpp), acquire-load the shard's table
// pointer, probe, and copy a trivially-copyable value out of an immutable
// node. No spinlock, no refcount traffic.
//
// Concurrency contract:
//  * find_copy / contains / for_each_copy never write shared memory. They
//    pin the global epoch domain internally, so any table or node a writer
//    retires underneath them stays allocated until they finish.
//  * Writers (insert_if_absent / get_or_insert / upsert / retain / clear)
//    serialise per shard on a spinlock. Nodes are immutable once published;
//    a read-modify-write (upsert, or a retain kReplace verdict) publishes a
//    replacement node and retires the old one, so readers always see a
//    complete old or new value, never a torn mix.
//  * insert_if_absent has first-wins semantics: the first inserter's value
//    is kept, matching the paper's discussion of concurrent jmp insertion
//    ("only one of the two will succeed").
//  * A reader that began probing just before an upsert may return the
//    pre-update value — equivalent to the read having been scheduled first.
//    Per-key first-wins payloads are immutable, so a published value is
//    never observed to change.
//  * Retired tables/nodes are reclaimed via EpochDomain::collect() at
//    quiescent points (the jmp store calls it from erase_if/clear); the
//    destructor frees everything still linked directly.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/ebr.hpp"
#include "support/flat_set.hpp"  // hash_mix64
#include "support/spinlock.hpp"

namespace parcfl::support {

template <class Key, class Value, class Hash = std::hash<Key>, unsigned kShardBits = 6>
class ShardedMap {
  static_assert(std::is_trivially_copyable_v<Key> &&
                    std::is_trivially_copyable_v<Value>,
                "ShardedMap publishes immutable nodes and copies values on "
                "the lock-free read path; keys and values must be trivially "
                "copyable (store pointers to immutable records otherwise)");

 public:
  static constexpr unsigned kShards = 1u << kShardBits;

  ShardedMap() = default;
  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  ~ShardedMap() {
    // Single-threaded by contract; free linked memory directly (anything
    // previously retired belongs to the epoch domain, not to us).
    for (Shard& s : shards_) {
      Table* t = s.table.load(std::memory_order_relaxed);
      if (t == nullptr) continue;
      for (std::size_t i = 0; i <= t->mask; ++i)
        delete t->slots[i].load(std::memory_order_relaxed);
      free_table(t);
    }
  }

  /// Insert (key, value) if absent; returns true if this call inserted.
  bool insert_if_absent(const Key& key, const Value& value) {
    return find_or_insert(key, [&] { return value; }).second;
  }

  /// Find-or-insert: `make()` runs only when the key is absent; returns the
  /// stored value (the winner's, under first-wins).
  template <class Make>
  Value get_or_insert(const Key& key, Make&& make) {
    return find_or_insert(key, std::forward<Make>(make)).first;
  }

  /// Lock-free: copy out the value for key, if present.
  bool find_copy(const Key& key, Value& out) const {
    EpochGuard guard(global_epoch_domain());
    const Shard& s = shard_for(key);
    const Table* t = s.table.load(std::memory_order_acquire);
    if (t == nullptr) return false;
    std::size_t i = home_slot(t, key);
    for (;;) {
      const Node* n = t->slots[i].load(std::memory_order_acquire);
      if (n == nullptr) return false;
      if (n->key == key) {
        out = n->value;
        return true;
      }
      i = (i + 1) & t->mask;
    }
  }

  bool contains(const Key& key) const {
    Value ignored;
    return find_copy(key, ignored);
  }

  /// Copy-on-write read-modify-write: fn(Value&) sees the current value (or
  /// a default-constructed one if the key is absent) and returns true to
  /// commit. A commit publishes a fresh immutable node; concurrent readers
  /// see the old or the new value, never a torn one. Returns fn's verdict.
  template <class Fn>
  bool upsert(const Key& key, Fn&& fn) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    Table* t = s.table.load(std::memory_order_relaxed);
    if (t != nullptr) {
      const std::size_t i = locate(t, key);
      if (Node* old = t->slots[i].load(std::memory_order_relaxed)) {
        Value copy = old->value;
        if (!fn(copy)) return false;
        t->slots[i].store(new Node{key, copy}, std::memory_order_release);
        global_epoch_domain().retire_object(old);
        return true;
      }
    }
    Value value{};
    if (!fn(value)) return false;
    publish_new(s, key, value);
    return true;
  }

  /// Lock-free iteration over every (key, value). Entries are visited at
  /// whatever point each slot is loaded: concurrent inserts/updates may or
  /// may not be seen (fine for statistics and snapshots taken at quiescent
  /// points).
  template <class Fn>
  void for_each_copy(Fn&& fn) const {
    EpochGuard guard(global_epoch_domain());
    for (const Shard& s : shards_) {
      const Table* t = s.table.load(std::memory_order_acquire);
      if (t == nullptr) continue;
      for (std::size_t i = 0; i <= t->mask; ++i) {
        const Node* n = t->slots[i].load(std::memory_order_acquire);
        if (n != nullptr) fn(n->key, n->value);
      }
    }
  }

  /// Per-entry verdict of retain(): leave the entry, publish the edited
  /// value as a replacement node, or drop the entry.
  enum class Retain : std::uint8_t { kKeep, kReplace, kDrop };

  /// One pass over every entry: fn(key, value) sees a mutable copy of the
  /// value and returns a Retain verdict. Returns the number of entries
  /// dropped. Each shard that changes is rebuilt atomically under its lock:
  /// survivors — replacement nodes for kReplace — move to a fresh table
  /// published in one store, and the old table plus every displaced node are
  /// retired to the epoch domain (readers mid-probe keep seeing the old table
  /// until they unpin). `on_drop(value)` runs, after the new table is
  /// published, for every value that left the map: each dropped entry's and
  /// each replaced entry's old value — use it to retire owned records, which
  /// a replacement therefore must not share.
  template <class Fn, class DropFn>
  std::size_t retain(Fn&& fn, DropFn&& on_drop) {
    std::size_t erased_total = 0;
    std::vector<Node*> keep, displaced;
    for (Shard& s : shards_) {
      keep.clear();
      displaced.clear();
      std::lock_guard lock(s.mu);
      Table* t = s.table.load(std::memory_order_relaxed);
      if (t == nullptr || s.size == 0) continue;
      for (std::size_t i = 0; i <= t->mask; ++i) {
        Node* n = t->slots[i].load(std::memory_order_relaxed);
        if (n == nullptr) continue;
        Value value = n->value;
        switch (fn(n->key, value)) {
          case Retain::kKeep:
            keep.push_back(n);
            break;
          case Retain::kReplace:
            keep.push_back(new Node{n->key, value});
            displaced.push_back(n);
            break;
          case Retain::kDrop:
            displaced.push_back(n);
            break;
        }
      }
      if (displaced.empty()) continue;
      Table* fresh = make_table(capacity_for(keep.size()));
      for (Node* n : keep)
        fresh->slots[locate(fresh, n->key)].store(n, std::memory_order_relaxed);
      s.table.store(fresh, std::memory_order_release);  // unlink, then retire
      retire_table(t);
      for (Node* n : displaced) {
        on_drop(static_cast<const Value&>(n->value));
        global_epoch_domain().retire_object(n);
      }
      const std::size_t dropped = s.size - keep.size();
      s.size = keep.size();
      size_.fetch_sub(dropped, std::memory_order_relaxed);
      erased_total += dropped;
    }
    return erased_total;
  }

  template <class Fn>
  std::size_t retain(Fn&& fn) {
    return retain(std::forward<Fn>(fn), [](const Value&) {});
  }

  /// Entry count, maintained as a relaxed atomic — O(1), touches no shard
  /// lock. Momentarily stale under concurrent writes, exact at quiescence.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Drop everything. `on_drop(value)` runs for each entry after its table
  /// is unlinked.
  template <class DropFn>
  void clear(DropFn&& on_drop) {
    for (Shard& s : shards_) {
      std::lock_guard lock(s.mu);
      Table* t = s.table.load(std::memory_order_relaxed);
      if (t == nullptr) continue;
      s.table.store(nullptr, std::memory_order_release);  // unlink first
      for (std::size_t i = 0; i <= t->mask; ++i) {
        Node* n = t->slots[i].load(std::memory_order_relaxed);
        if (n == nullptr) continue;
        on_drop(static_cast<const Value&>(n->value));
        global_epoch_domain().retire_object(n);
      }
      retire_table(t);
      size_.fetch_sub(s.size, std::memory_order_relaxed);
      s.size = 0;
    }
  }

  void clear() {
    clear([](const Value&) {});
  }

 private:
  struct Node {
    Key key;
    Value value;  // immutable once the node is published
  };

  struct Table {
    std::size_t mask;
    std::atomic<Node*>* slots;  // capacity = mask + 1, zero-initialised
  };

  // Padded to a cache line: shard locks and table pointers are hammered from
  // every worker, and adjacent shards must not false-share.
  struct alignas(64) Shard {
    mutable SpinLock mu;                    // writers only
    std::atomic<Table*> table{nullptr};
    std::size_t size = 0;                   // guarded by mu
  };

  static Table* make_table(std::size_t capacity) {
    Table* t = new Table;
    t->mask = capacity - 1;
    t->slots = new std::atomic<Node*>[capacity]();
    return t;
  }

  static void free_table(Table* t) {
    delete[] t->slots;
    delete t;
  }

  static void retire_table(Table* t) {
    global_epoch_domain().retire(t, [](void* p) {
      free_table(static_cast<Table*>(p));
    });
  }

  // Smallest power-of-two capacity keeping load factor under 3/4.
  static std::size_t capacity_for(std::size_t entries) {
    std::size_t cap = 16;
    while ((entries + 1) * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  // Slot probing uses the splitmix finaliser; shard selection uses the
  // murmur3 finaliser below — independent mixes, so the bits fixed by shard
  // choice don't cluster probes within a shard's table.
  static std::size_t home_slot(const Table* t, const Key& key) {
    return static_cast<std::size_t>(
               hash_mix64(static_cast<std::uint64_t>(Hash{}(key)))) &
           t->mask;
  }

  // Probe until key match or first empty slot; writer-side (relaxed loads —
  // all slot writes happen under the same shard lock).
  static std::size_t locate(const Table* t, const Key& key) {
    std::size_t i = home_slot(t, key);
    for (;;) {
      const Node* n = t->slots[i].load(std::memory_order_relaxed);
      if (n == nullptr || n->key == key) return i;
      i = (i + 1) & t->mask;
    }
  }

  // Shared insert path; returns (stored value, inserted-by-this-call).
  template <class Make>
  std::pair<Value, bool> find_or_insert(const Key& key, Make&& make) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    if (Table* t = s.table.load(std::memory_order_relaxed)) {
      if (const Node* n = t->slots[locate(t, key)].load(std::memory_order_relaxed))
        return {n->value, false};
    }
    return {publish_new(s, key, Value(make())), true};
  }

  // Under the shard lock: ensure room, publish a fresh node, bump counters.
  const Value& publish_new(Shard& s, const Key& key, const Value& value) {
    Table* t = table_with_room(s);
    Node* fresh = new Node{key, value};
    t->slots[locate(t, key)].store(fresh, std::memory_order_release);
    ++s.size;
    size_.fetch_add(1, std::memory_order_relaxed);
    return fresh->value;
  }

  Table* table_with_room(Shard& s) {
    Table* t = s.table.load(std::memory_order_relaxed);
    if (t == nullptr) {
      t = make_table(16);
      s.table.store(t, std::memory_order_release);
      return t;
    }
    if ((s.size + 1) * 4 <= (t->mask + 1) * 3) return t;
    Table* bigger = make_table((t->mask + 1) * 2);
    for (std::size_t i = 0; i <= t->mask; ++i) {
      Node* n = t->slots[i].load(std::memory_order_relaxed);
      if (n == nullptr) continue;
      bigger->slots[locate(bigger, n->key)].store(n, std::memory_order_relaxed);
    }
    // The release publish orders the relaxed node moves above for readers
    // that acquire the new table pointer; the old table is retired, not
    // freed, because readers may still be probing it.
    s.table.store(bigger, std::memory_order_release);
    retire_table(t);
    return bigger;
  }

  Shard& shard_for(const Key& key) { return shards_[shard_index(key)]; }
  const Shard& shard_for(const Key& key) const { return shards_[shard_index(key)]; }

  std::size_t shard_index(const Key& key) const {
    // Re-mix the hash so maps with identity std::hash still spread shards.
    std::uint64_t h = Hash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h & (kShards - 1));
  }

  Shard shards_[kShards];
  std::atomic<std::size_t> size_{0};
};

}  // namespace parcfl::support
