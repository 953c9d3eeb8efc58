#pragma once
// SessionManager — many graphs, one resident fleet (DESIGN.md §12).
//
// The single-session service of PRs 2–6 keeps one PAG warm forever. A fleet
// node serves one graph per analyzed codebase: thousands of registered
// tenants, a handful actually hot at any moment. The manager owns that
// mapping:
//
//  * open(name, path) registers a tenant without loading anything — the
//    graph parse and warm-start happen on the first acquire() (lazy open);
//  * acquire(name) returns a Lease pinning the tenant's Session resident for
//    the lease's lifetime — eviction never touches a session a batch is
//    holding, by construction rather than by timing;
//  * when resident sessions exceed max_resident or their summed
//    resident_bytes() exceed max_resident_bytes, the least-recently-used
//    idle (lease-free) session is evicted: its warm jmp-state spills to
//    <spill_dir>/<name>.state as mmap-able v3 (plus the graph itself if
//    deltas were applied — see Session::spill), and the Session is dropped.
//    A later acquire reopens it: graph parse + zero-copy state mmap, orders
//    of magnitude cheaper than re-solving the query set cold;
//  * close(name) waits out live leases, spills, and unregisters;
//  * adopt(name, pag) installs an in-memory session with no backing graph
//    file — the service's default tenant. Adopted sessions are pinned: they
//    can never be reopened from disk, so they are never evicted and do not
//    count against max_resident (they do count toward resident bytes, which
//    meter real memory).
//
// Concurrency: one mutex over the registry. Graph loads, spills and Session
// destruction (which joins the prefilter thread) all happen *outside* the
// lock with the entry marked busy; under the lock, a busy entry's fields are
// never touched and waiters block on the cv. Lease release updates the LRU
// tick and byte sample and triggers cap enforcement. Lock order: the manager
// mutex may be held while resident_bytes() takes a Session's rev_mu_, then
// its pf_mu_ and its cx_mu_ (each alone, to copy a pointer), never the
// reverse (Sessions know nothing of the manager).

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/session.hpp"

namespace parcfl::service {

class SessionManager {
 public:
  struct Options {
    /// Template applied to every tenant session (engine config, reduction,
    /// prefilter, slow-query sink). Its state_path applies only to adopted
    /// sessions; opened tenants spill to <spill_dir>/<name>.state.
    Session::Options session;
    /// Evictable sessions allowed resident at once (≥ 1). Pinned (adopted)
    /// sessions are not counted — they cannot be evicted anyway.
    std::size_t max_resident = 8;
    /// Cap on summed Session::resident_bytes() across every resident
    /// session, pinned included. 0 = unbounded. Enforcement is best-effort:
    /// sessions held by leases cannot be evicted, so a burst can overshoot
    /// until leases drain.
    std::uint64_t max_resident_bytes = 0;
    /// Where evicted warm state (and updated graphs) spill. Must exist.
    std::string spill_dir = ".";
  };

  struct Counters {
    std::uint64_t opens = 0;      // tenants registered
    std::uint64_t loads = 0;      // first-time graph loads
    std::uint64_t reopens = 0;    // evict → reload cycles
    std::uint64_t evictions = 0;
    std::uint64_t closes = 0;
    /// Fingerprint/epoch-mismatched spill files found at load time and
    /// unlinked (a close + re-open of the same tenant name with a different
    /// graph leaves the old tenant's spill behind; left in place it would
    /// shadow future spills under the same name).
    std::uint64_t stale_spills = 0;
    std::uint64_t open_tenants = 0;    // gauge: registered tenants
    std::uint64_t resident = 0;        // gauge: resident sessions (incl. pinned)
    std::uint64_t resident_bytes = 0;  // gauge: summed byte samples
  };

 private:
  struct Entry {
    std::string name;
    std::string pag_path;    // empty for adopted sessions
    std::string state_path;  // spill target ("" = adopted with no template path)
    std::shared_ptr<Session> session;  // null while evicted / never loaded
    std::uint64_t last_used = 0;       // LRU tick
    std::uint64_t bytes = 0;           // last resident_bytes() sample
    std::uint32_t leases = 0;
    bool dirty = false;        // warm state changed since last spill
    bool pinned = false;       // adopted: never evicted, never closed
    bool busy = false;         // loading/spilling outside the lock
    bool ever_loaded = false;  // distinguishes first load from reopen
    bool spill_failed = false; // last evict attempt failed; skip until re-acquired
  };

 public:
  /// Pins one tenant's session resident. Move-only; release on destruction
  /// updates the LRU clock and may trigger eviction of *other* sessions.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : manager_(other.manager_),
          entry_(other.entry_),
          session_(std::move(other.session_)) {
      other.manager_ = nullptr;
      other.entry_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        reset();
        manager_ = other.manager_;
        entry_ = other.entry_;
        session_ = std::move(other.session_);
        other.manager_ = nullptr;
        other.entry_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }

    explicit operator bool() const { return session_ != nullptr; }
    Session* operator->() const { return session_.get(); }
    Session& operator*() const { return *session_; }
    Session* get() const { return session_.get(); }

   private:
    friend class SessionManager;
    Lease(SessionManager* manager, Entry* entry,
          std::shared_ptr<Session> session)
        : manager_(manager), entry_(entry), session_(std::move(session)) {}
    void reset() {
      if (manager_ != nullptr) manager_->release(entry_);
      manager_ = nullptr;
      entry_ = nullptr;
      session_.reset();
    }
    SessionManager* manager_ = nullptr;
    Entry* entry_ = nullptr;
    std::shared_ptr<Session> session_;
  };

  explicit SessionManager(Options options);
  /// Destroys every resident session (joining their prefilter threads). No
  /// lease may be outstanding. Nothing is saved — call save_dirty() first
  /// for a graceful exit.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Register tenant `name` backed by graph file `pag_path`. Lazy: the graph
  /// is not parsed here, only probed for readability (a bad path errors now,
  /// not at first query). Idempotent for the same (name, path); a different
  /// path for a live name is an error.
  bool open(const std::string& name, const std::string& pag_path,
            std::string* error);

  /// Install an already-built graph as a pinned resident session (the
  /// default tenant). Returns the session, or null if the name is taken.
  /// The Options template's state_path applies to this session (warm-start
  /// and save_dirty target).
  std::shared_ptr<Session> adopt(const std::string& name, pag::Pag pag);

  /// Lease the tenant's session, loading or reopening it if evicted. Blocks
  /// while another thread loads/spills the same tenant. Returns an empty
  /// Lease (and fills *error) for unknown tenants or failed loads.
  Lease acquire(const std::string& name, std::string* error);

  /// Wait out live leases, spill warm state, destroy the session and
  /// unregister the name. Pinned tenants are not closable. Returns false if
  /// the name is unknown or the final spill failed (the tenant is dropped
  /// either way).
  bool close(const std::string& name, std::string* error);

  /// Spill every dirty resident session (graceful shutdown; sessions stay
  /// resident). Returns the number spilled; on any failure, returns after
  /// trying all of them with *error holding the first failure.
  std::size_t save_dirty(std::string* error);

  bool known(const std::string& name) const;
  Counters counters() const;

  const Options& options() const { return options_; }

 private:
  friend class Lease;

  void release(Entry* entry);
  /// Evict LRU idle sessions until both caps hold (or no candidate is
  /// evictable). Caller holds `lock`; may unlock/relock it.
  void enforce_caps(std::unique_lock<std::mutex>& lock);
  std::string state_path_for(const std::string& name) const;
  std::string pag_spill_path_for(const std::string& name) const;
  std::shared_ptr<Session> load_session(const std::string& pag_path,
                                        const std::string& state_path,
                                        std::string* error) const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// std::map: Entry addresses must stay stable while leases and busy
  /// windows reference them (node-based, never rehashes).
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::uint64_t tick_ = 0;
  Counters counters_;  // monotone fields maintained here; gauges recomputed
};

}  // namespace parcfl::service
