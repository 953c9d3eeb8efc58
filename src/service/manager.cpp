#include "service/manager.hpp"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "pag/pag_io.hpp"
#include "service/protocol.hpp"
#include "support/check.hpp"

namespace parcfl::service {

namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

}  // namespace

SessionManager::SessionManager(Options options) : options_(std::move(options)) {
  PARCFL_CHECK_MSG(options_.max_resident >= 1, "max_resident must be >= 1");
}

SessionManager::~SessionManager() {
  // Leases must be drained by now (the service joins its collector first).
  // Move the sessions out so their destructors — which join prefilter
  // threads — run without the registry lock held.
  std::vector<std::shared_ptr<Session>> doomed;
  {
    std::lock_guard lock(mu_);
    for (auto& [name, entry] : entries_) {
      PARCFL_CHECK_MSG(entry->leases == 0 && !entry->busy,
                       "SessionManager destroyed with live leases");
      doomed.push_back(std::move(entry->session));
    }
    entries_.clear();
  }
}

std::string SessionManager::state_path_for(const std::string& name) const {
  return options_.spill_dir + "/" + name + ".state";
}

std::string SessionManager::pag_spill_path_for(const std::string& name) const {
  return options_.spill_dir + "/" + name + ".pag";
}

bool SessionManager::open(const std::string& name, const std::string& pag_path,
                          std::string* error) {
  if (!valid_tenant_name(name)) return fail(error, "bad tenant name");
  {
    // Probe now so `open` with a bogus path errors at the verb, not at the
    // tenant's first query. The actual parse stays lazy.
    std::ifstream probe(pag_path);
    if (!probe) return fail(error, "cannot open " + pag_path);
  }
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    Entry& e = *it->second;
    if (e.pinned || e.pag_path != pag_path)
      return fail(error,
                  "tenant '" + name + "' already open with a different graph");
    return true;  // idempotent re-open of the same registration
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->pag_path = pag_path;
  entry->state_path = state_path_for(name);
  entries_.emplace(name, std::move(entry));
  counters_.opens += 1;
  return true;
}

std::shared_ptr<Session> SessionManager::adopt(const std::string& name,
                                               pag::Pag pag) {
  // Built outside the lock: Session construction spawns the prefilter
  // thread and may warm-start from the template's state_path.
  auto session = std::make_shared<Session>(std::move(pag), options_.session);
  std::lock_guard lock(mu_);
  if (entries_.contains(name)) return nullptr;
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->state_path = options_.session.state_path;
  entry->session = session;
  entry->pinned = true;
  entry->ever_loaded = true;
  entry->dirty = true;
  entry->bytes = session->resident_bytes();
  entry->last_used = ++tick_;
  entries_.emplace(name, std::move(entry));
  counters_.opens += 1;
  return session;
}

std::shared_ptr<Session> SessionManager::load_session(
    const std::string& pag_path, const std::string& state_path,
    std::string* error) const {
  std::ifstream in(pag_path);
  if (!in) {
    fail(error, "cannot open " + pag_path);
    return nullptr;
  }
  std::string parse_error;
  auto pag = pag::read_pag(in, &parse_error);
  if (!pag) {
    fail(error, pag_path + ": " + parse_error);
    return nullptr;
  }
  Session::Options opts = options_.session;
  opts.state_path = state_path;  // warm-start from the spill if present
  return std::make_shared<Session>(std::move(*pag), std::move(opts));
}

SessionManager::Lease SessionManager::acquire(const std::string& name,
                                              std::string* error) {
  std::unique_lock lock(mu_);
  for (;;) {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      fail(error, "unknown tenant '" + name + "'");
      return {};
    }
    Entry& e = *it->second;
    if (e.busy) {
      // Another thread is loading or spilling this tenant; its fields are
      // off-limits until the busy window closes.
      cv_.wait(lock);
      continue;
    }
    if (e.session != nullptr) {
      e.leases += 1;
      e.last_used = ++tick_;
      e.dirty = true;  // any lease may mint jmp state; spill conservatively
      e.spill_failed = false;
      return Lease(this, &e, e.session);
    }

    // Cold load or reopen-after-evict: parse the graph and warm-start
    // outside the lock.
    e.busy = true;
    const std::string pag_path = e.pag_path;
    const std::string state_path = e.state_path;
    const std::string pag_spill = pag_spill_path_for(name);
    const bool reopen = e.ever_loaded;
    lock.unlock();
    std::string load_error;
    std::shared_ptr<Session> session =
        load_session(pag_path, state_path, &load_error);
    // A stale spill is a well-formed state image for a *different* graph or
    // epoch — the residue of close + re-open of this tenant name with
    // another graph. The session already started cold past it; left on disk
    // it would shadow this tenant's future spills, so unlink it (and the
    // orphaned graph spill, unless the registration itself points there).
    const bool stale = session != nullptr && session->warm_start_stale();
    if (stale) {
      std::remove(state_path.c_str());
      if (pag_spill != pag_path) std::remove(pag_spill.c_str());
    }
    lock.lock();
    e.busy = false;
    if (stale) counters_.stale_spills += 1;
    if (session == nullptr) {
      cv_.notify_all();
      fail(error, "tenant '" + name + "': " + load_error);
      return {};
    }
    e.session = std::move(session);
    e.ever_loaded = true;
    e.bytes = e.session->resident_bytes();
    e.leases += 1;
    e.last_used = ++tick_;
    e.dirty = true;
    e.spill_failed = false;
    (reopen ? counters_.reopens : counters_.loads) += 1;
    Lease lease(this, &e, e.session);
    // The new resident may push the fleet over a cap; evict someone idle.
    // Never this entry — it holds a lease now.
    enforce_caps(lock);
    cv_.notify_all();
    return lease;
  }
}

void SessionManager::release(Entry* entry) {
  std::unique_lock lock(mu_);
  PARCFL_CHECK_MSG(entry->leases > 0, "lease release without acquire");
  entry->leases -= 1;
  entry->last_used = ++tick_;
  if (entry->session != nullptr)
    entry->bytes = entry->session->resident_bytes();
  if (entry->leases == 0) enforce_caps(lock);
  cv_.notify_all();
}

void SessionManager::enforce_caps(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    std::size_t evictable_resident = 0;
    std::uint64_t total_bytes = 0;
    Entry* victim = nullptr;
    for (auto& [name, entry] : entries_) {
      Entry& e = *entry;
      if (e.busy || e.session == nullptr) continue;
      total_bytes += e.bytes;
      if (e.pinned) continue;
      evictable_resident += 1;
      const bool candidate = e.leases == 0 && !e.spill_failed;
      if (candidate && (victim == nullptr || e.last_used < victim->last_used))
        victim = &e;
    }
    const bool over_count = evictable_resident > options_.max_resident;
    const bool over_bytes = options_.max_resident_bytes != 0 &&
                            total_bytes > options_.max_resident_bytes;
    if ((!over_count && !over_bytes) || victim == nullptr) return;

    // Spill and destroy outside the lock; busy fences the entry meanwhile.
    // A session a batch holds is never here: leases == 0 was required above
    // and cannot change while we hold the lock, and acquire() skips busy
    // entries — eviction and batch execution are mutually exclusive per
    // tenant by construction.
    victim->busy = true;
    std::shared_ptr<Session> session = std::move(victim->session);
    const bool dirty = victim->dirty;
    const std::string state_path = victim->state_path;
    const std::string pag_spill = pag_spill_path_for(victim->name);
    lock.unlock();
    std::string spill_error;
    bool wrote_pag = false;
    const bool saved =
        !dirty || session->spill(state_path, pag_spill, &wrote_pag, &spill_error);
    if (saved) session.reset();  // joins the prefilter thread, lock-free here
    lock.lock();
    victim->busy = false;
    if (!saved) {
      // Dropping unsaved state would be merely slow; dropping an updated
      // graph whose spill failed would be *wrong* (reopen would read the
      // stale source file). Keep it resident, remember the failure so the
      // eviction scan does not spin on it, and let the overshoot stand.
      std::fprintf(stderr, "parcfl-service: evict of '%s' failed: %s\n",
                   victim->name.c_str(), spill_error.c_str());
      victim->session = std::move(session);
      victim->spill_failed = true;
      cv_.notify_all();
      continue;
    }
    if (wrote_pag) victim->pag_path = pag_spill;
    victim->dirty = false;
    victim->bytes = 0;
    counters_.evictions += 1;
    cv_.notify_all();
  }
}

bool SessionManager::close(const std::string& name, std::string* error) {
  std::unique_lock lock(mu_);
  for (;;) {
    auto it = entries_.find(name);
    if (it == entries_.end())
      return fail(error, "unknown tenant '" + name + "'");
    Entry& e = *it->second;
    if (e.pinned) return fail(error, "tenant '" + name + "' is not closable");
    if (e.busy || e.leases != 0) {
      // close-while-queried: wait out the in-flight batch (or load/evict),
      // then proceed — the drop below never yanks a session mid-batch.
      cv_.wait(lock);
      continue;
    }
    e.busy = true;
    std::shared_ptr<Session> session = std::move(e.session);
    const bool dirty = e.dirty;
    const std::string state_path = e.state_path;
    const std::string pag_spill = pag_spill_path_for(name);
    lock.unlock();
    std::string spill_error;
    bool spilled = true;
    if (session != nullptr && dirty && !state_path.empty())
      spilled = session->spill(state_path, pag_spill, nullptr, &spill_error);
    session.reset();
    lock.lock();
    // No other thread erases entries, and busy kept rivals out, so the name
    // still maps to this entry; drop it for good.
    entries_.erase(name);
    counters_.closes += 1;
    cv_.notify_all();
    if (!spilled)
      return fail(error, "tenant '" + name + "' closed, but saving its warm "
                         "state failed: " + spill_error);
    return true;
  }
}

std::size_t SessionManager::save_dirty(std::string* error) {
  std::vector<std::string> names;
  {
    std::lock_guard lock(mu_);
    for (const auto& [name, entry] : entries_) names.push_back(name);
  }
  std::size_t saved = 0;
  std::string first_error;
  for (const std::string& name : names) {
    std::unique_lock lock(mu_);
    for (;;) {
      // Re-find every iteration: a concurrent close may have erased the
      // entry (and a later open re-created it at a new address) while we
      // waited on the cv.
      auto it = entries_.find(name);
      if (it == entries_.end()) break;  // closed meanwhile
      Entry& e = *it->second;
      if (e.busy) {
        cv_.wait(lock);
        continue;
      }
      if (e.session == nullptr || !e.dirty || e.state_path.empty()) break;
      // Spilling is safe while leases run (Session::save locks internally);
      // busy only fences out concurrent evict/close, and pins the entry's
      // address for the unlocked window below.
      e.busy = true;
      const bool pinned = e.pinned;
      std::shared_ptr<Session> session = e.session;
      const std::string state_path = e.state_path;
      const std::string pag_spill =
          pinned ? std::string() : pag_spill_path_for(name);
      lock.unlock();
      std::string spill_error;
      bool ok;
      bool wrote_pag = false;
      if (pinned) {
        // Adopted sessions have no reopenable graph file; their state_path
        // is the service-level warm-state file (--state); Session::save
        // writes it in place without a graph spill.
        ok = session->save(state_path, &spill_error);
      } else {
        ok = session->spill(state_path, pag_spill, &wrote_pag, &spill_error);
      }
      lock.lock();
      e.busy = false;
      if (ok) {
        if (wrote_pag) e.pag_path = pag_spill;
        e.dirty = false;
        saved += 1;
      } else if (first_error.empty()) {
        first_error = "saving '" + name + "': " + spill_error;
      }
      cv_.notify_all();
      break;
    }
  }
  if (!first_error.empty() && error != nullptr) *error = first_error;
  return saved;
}

bool SessionManager::known(const std::string& name) const {
  std::lock_guard lock(mu_);
  return entries_.contains(name);
}

SessionManager::Counters SessionManager::counters() const {
  std::lock_guard lock(mu_);
  Counters out = counters_;
  out.open_tenants = entries_.size();
  out.resident = 0;
  out.resident_bytes = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry->session == nullptr && !entry->busy) continue;
    out.resident += 1;
    out.resident_bytes += entry->bytes;
  }
  return out;
}

}  // namespace parcfl::service
