#include "service/manager.hpp"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "pag/pag_io.hpp"
#include "support/check.hpp"

namespace parcfl::service {

namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

/// A name becomes a spill-file stem, so it must not traverse paths.
bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxTenantName) return false;
  if (name == "." || name == "..") return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
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
  if (!valid_name(name)) return fail(error, "bad session name");
  {
    // Probe now so `open` with a bogus path errors at the verb, not at the
    // session's first acquire. The actual parse stays lazy.
    std::ifstream probe(pag_path);
    if (!probe) return fail(error, "cannot open " + pag_path);
  }
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second->pag_path != pag_path)
      return fail(error,
                  "session '" + name + "' already open with a different graph");
    return true;  // idempotent re-open of the same registration
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->pag_path = pag_path;
  entries_.emplace(name, std::move(entry));
  counters_.opens += 1;
  return true;
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
      fail(error, "unknown session '" + name + "'");
      return {};
    }
    Entry& e = *it->second;
    if (e.busy) {
      // Another thread is loading or spilling this session; its fields are
      // off-limits until the busy window closes.
      cv_.wait(lock);
      continue;
    }
    if (e.session != nullptr) {
      e.leases += 1;
      e.last_used = ++tick_;
      e.spill_failed = false;
      return Lease(this, &e, e.session);
    }

    // Cold load or reopen-after-evict: parse the graph and warm-start
    // outside the lock.
    e.busy = true;
    const std::string pag_path = e.pag_path;
    const std::string state_path = state_path_for(name);
    const std::string pag_spill = pag_spill_path_for(name);
    const bool reopen = e.ever_loaded;
    lock.unlock();
    std::string load_error;
    std::shared_ptr<Session> session =
        load_session(pag_path, state_path, &load_error);
    // A stale spill is a well-formed state image for a *different* graph or
    // epoch — the residue of an earlier registration of this name, in a
    // spill directory now reused. The session already started cold past it;
    // left on disk it would shadow this name's future spills, so unlink it
    // (and the orphaned graph spill, unless the registration points there).
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
      fail(error, "session '" + name + "': " + load_error);
      return {};
    }
    e.session = std::move(session);
    e.ever_loaded = true;
    e.leases += 1;
    e.last_used = ++tick_;
    e.spill_failed = false;
    (reopen ? counters_.reopens : counters_.loads) += 1;
    Lease lease(this, &e, e.session);
    // The new resident may push the count over the cap; evict someone idle.
    // Never this entry — it holds a lease now.
    enforce_cap(lock);
    cv_.notify_all();
    return lease;
  }
}

void SessionManager::release(Entry* entry) {
  std::unique_lock lock(mu_);
  PARCFL_CHECK_MSG(entry->leases > 0, "lease release without acquire");
  entry->leases -= 1;
  entry->last_used = ++tick_;
  if (entry->leases == 0) enforce_cap(lock);
  cv_.notify_all();
}

void SessionManager::enforce_cap(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    std::size_t resident = 0;
    Entry* victim = nullptr;
    for (auto& [name, entry] : entries_) {
      Entry& e = *entry;
      if (e.busy || e.session == nullptr) continue;
      resident += 1;
      const bool candidate = e.leases == 0 && !e.spill_failed;
      if (candidate && (victim == nullptr || e.last_used < victim->last_used))
        victim = &e;
    }
    if (resident <= options_.max_resident || victim == nullptr) return;

    // Spill and destroy outside the lock; busy fences the entry meanwhile.
    // A session a batch holds is never here: leases == 0 was required above
    // and cannot change while we hold the lock, and acquire() skips busy
    // entries — eviction and batch execution are mutually exclusive per
    // session by construction. Every resident session has been leased since
    // it loaded, so it may hold new jmp state: always spill.
    victim->busy = true;
    std::shared_ptr<Session> session = std::move(victim->session);
    const std::string state_path = state_path_for(victim->name);
    const std::string pag_spill = pag_spill_path_for(victim->name);
    lock.unlock();
    std::string spill_error;
    bool wrote_pag = false;
    const bool saved =
        session->spill(state_path, pag_spill, &wrote_pag, &spill_error);
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
    counters_.evictions += 1;
    cv_.notify_all();
  }
}

SessionManager::Counters SessionManager::counters() const {
  std::lock_guard lock(mu_);
  Counters out = counters_;
  out.open_tenants = entries_.size();
  out.resident = 0;
  for (const auto& [name, entry] : entries_)
    if (entry->session != nullptr || entry->busy) out.resident += 1;
  return out;
}

}  // namespace parcfl::service
