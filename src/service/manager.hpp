#pragma once
// SessionManager — named sessions behind a resident cap, spilled to disk and
// reopened on demand (DESIGN.md §12). The query service serves one graph and
// does not use it; it is the library form of the evict/spill/reopen cycle.
//
//  * open(name, path) registers a session without loading anything — the
//    graph parse and warm-start happen on the first acquire() (lazy open);
//  * acquire(name) returns a Lease pinning the session resident for the
//    lease's lifetime — eviction never touches a session a caller is
//    holding, by construction rather than by timing;
//  * when more than max_resident sessions are resident, the least-recently-
//    used idle (lease-free) one is evicted: its warm jmp-state spills to
//    <spill_dir>/<name>.state as mmap-able v3 (plus the graph itself if
//    deltas were applied — see Session::spill), and the Session is dropped.
//    A later acquire reopens it: graph parse + zero-copy state mmap, orders
//    of magnitude cheaper than re-solving the query set cold.
//
// Concurrency: one mutex over the registry. Graph loads, spills and Session
// destruction (which joins the prefilter thread) all happen *outside* the
// lock with the entry marked busy; under the lock, a busy entry's fields are
// never touched and waiters block on the cv. Lease release updates the LRU
// tick and triggers cap enforcement. Sessions know nothing of the manager.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/session.hpp"

namespace parcfl::service {

/// Longest session name open() accepts.
inline constexpr std::size_t kMaxTenantName = 64;

class SessionManager {
 public:
  struct Options {
    /// Template applied to every session (engine config, reduction,
    /// prefilter). Its state_path is ignored: each session spills to
    /// <spill_dir>/<name>.state.
    Session::Options session;
    /// Sessions allowed resident at once (≥ 1).
    std::size_t max_resident = 8;
    /// Where evicted warm state (and updated graphs) spill. Must exist.
    std::string spill_dir = ".";
  };

  struct Counters {
    std::uint64_t opens = 0;      // names registered
    std::uint64_t loads = 0;      // first-time graph loads
    std::uint64_t reopens = 0;    // evict → reload cycles
    std::uint64_t evictions = 0;
    /// Fingerprint/epoch-mismatched spill files found at load time and
    /// unlinked (a spill directory reused for a name now backed by another
    /// graph; left in place the file would shadow future spills).
    std::uint64_t stale_spills = 0;
    std::uint64_t open_tenants = 0;  // gauge: registered names
    std::uint64_t resident = 0;      // gauge: resident sessions
  };

 private:
  struct Entry {
    std::string name;
    std::string pag_path;
    std::shared_ptr<Session> session;  // null while evicted / never loaded
    std::uint64_t last_used = 0;       // LRU tick
    std::uint32_t leases = 0;
    bool busy = false;         // loading/spilling outside the lock
    bool ever_loaded = false;  // distinguishes first load from reopen
    bool spill_failed = false; // last evict attempt failed; skip until re-acquired
  };

 public:
  /// Pins one session resident. Move-only; release on destruction updates
  /// the LRU clock and may trigger eviction of *other* sessions.
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
  /// lease may be outstanding. Nothing is saved.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Register session `name` backed by graph file `pag_path`. Lazy: the
  /// graph is not parsed here, only probed for readability (a bad path
  /// errors now, not at first acquire). The name becomes a spill-file stem,
  /// so it must be 1..kMaxTenantName bytes of [A-Za-z0-9_.-] and not "." or
  /// "..". Idempotent for the same (name, path); a different path for a
  /// registered name is an error.
  bool open(const std::string& name, const std::string& pag_path,
            std::string* error);

  /// Lease the session, loading or reopening it if evicted. Blocks while
  /// another thread loads or spills the same session. Returns an empty
  /// Lease (and fills *error) for unknown names or failed loads.
  Lease acquire(const std::string& name, std::string* error);

  Counters counters() const;

 private:
  friend class Lease;

  void release(Entry* entry);
  /// Evict LRU idle sessions until the resident cap holds (or no candidate
  /// is evictable). Caller holds `lock`; may unlock/relock it.
  void enforce_cap(std::unique_lock<std::mutex>& lock);
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
