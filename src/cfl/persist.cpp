#include "cfl/persist.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace parcfl::cfl {

std::uint64_t pag_fingerprint(const pag::Pag& pag) {
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  // XOR of per-edge mixes: order-independent, so builder edge order (and
  // dedupe order) cannot perturb it; node kinds are folded in positionally.
  std::uint64_t h = mix(pag.node_count()) ^ mix(pag.edge_count() + 0x9e37);
  for (const pag::Edge& e : pag.edges()) {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(e.kind) << 56) ^
        (static_cast<std::uint64_t>(e.dst.value()) << 28) ^
        (static_cast<std::uint64_t>(e.src.value())) ^
        (static_cast<std::uint64_t>(e.aux) << 40);
    h ^= mix(packed + 0x12345);
  }
  for (std::uint32_t n = 0; n < pag.node_count(); ++n)
    h ^= mix((static_cast<std::uint64_t>(n) << 8) +
             static_cast<std::uint64_t>(pag.kind(pag::NodeId(n))));
  return h;
}

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// fail() + mark the file as a well-formed image for the wrong graph/epoch.
bool fail_stale(std::string* error, bool* stale, const std::string& msg) {
  if (stale != nullptr) *stale = true;
  return fail(error, msg);
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& data,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    return fail(error, "cannot open " + tmp + ": " + std::strerror(errno));
  const bool wrote =
      std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
      std::fflush(f) == 0;
  // Make the rename durable: data must hit the disk before the new name does.
  const bool synced = wrote && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !synced) {
    std::remove(tmp.c_str());
    return fail(error, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, "rename to " + path + " failed: " + std::strerror(errno));
  }
  return true;
}

// ---- v3 binary format ------------------------------------------------------

namespace {

struct V3Header {
  char magic[8];
  std::uint32_t node_count;
  std::uint32_t edge_count;
  std::uint64_t fingerprint;
  std::uint32_t revision;
  std::uint32_t ctx_count;  // interned contexts incl. the empty one (id 0)
  std::uint64_t fin_count;
  std::uint64_t unf_count;
  std::uint64_t target_count;
  std::uint64_t total_size;  // whole file, header included
  std::uint32_t flags;       // bit 0: trailing legacy hot section present
  std::uint32_t hot_count;   // u64 words in the legacy hot section
};
static_assert(sizeof(V3Header) == 72);

/// Set only by earlier builds, which wrote index root keys after the target
/// section; the loader validates and skips that section.
constexpr std::uint32_t kV3FlagHotKeys = 1u;

struct V3Ctx {
  std::uint32_t parent;
  std::uint32_t site;
};
static_assert(sizeof(V3Ctx) == 8);

struct V3Fin {
  std::uint64_t key;
  std::uint64_t target_begin;  // index into the target section
  std::uint32_t cost;
  std::uint32_t target_len;
};
static_assert(sizeof(V3Fin) == 24);

struct V3Unf {
  std::uint64_t key;
  std::uint32_t s;
  std::uint32_t pad;
};
static_assert(sizeof(V3Unf) == 16);

struct V3Target {
  std::uint32_t node;
  std::uint32_t ctx;
  std::uint32_t steps;
};
static_assert(sizeof(V3Target) == 12);

// The identity-remap fast path memcpys V3Target runs straight into
// JmpTarget arrays; the two must stay layout-compatible.
static_assert(sizeof(JmpTarget) == sizeof(V3Target));
static_assert(std::is_trivially_copyable_v<JmpTarget>);

template <class T>
void append_raw(std::string& out, const T* data, std::size_t n) {
  out.append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

}  // namespace

bool save_sharing_state_file_v3(const std::string& path, const pag::Pag& pag,
                                const ContextTable& contexts,
                                const JmpStore& store, std::string* error,
                                std::int64_t revision_override) {
  // Snapshot the store into plain vectors (one epoch-pinned pass), then sort
  // by key so equal state always produces byte-identical files.
  struct FinSnap {
    V3Fin fin;
    std::vector<V3Target> targets;
  };
  std::vector<FinSnap> fins;
  std::vector<V3Unf> unfs;
  store.for_each_entry([&](std::uint64_t key, const JmpStore::Lookup& entry) {
    if (entry.finished != nullptr) {
      FinSnap snap;
      snap.fin.key = key;
      snap.fin.target_begin = 0;  // assigned after the sort
      snap.fin.cost = entry.finished->cost;
      snap.fin.target_len =
          static_cast<std::uint32_t>(entry.finished->targets.size());
      snap.targets.reserve(entry.finished->targets.size());
      for (const JmpTarget& t : entry.finished->targets)
        snap.targets.push_back(V3Target{t.node.value(), t.ctx.value(), t.steps});
      fins.push_back(std::move(snap));
    }
    if (entry.unfinished_s != 0)
      unfs.push_back(V3Unf{key, entry.unfinished_s, 0});
  });
  std::sort(fins.begin(), fins.end(),
            [](const FinSnap& a, const FinSnap& b) { return a.fin.key < b.fin.key; });
  std::sort(unfs.begin(), unfs.end(),
            [](const V3Unf& a, const V3Unf& b) { return a.key < b.key; });

  const std::uint64_t ctx_count = contexts.size();
  std::uint64_t target_count = 0;
  for (FinSnap& snap : fins) {
    snap.fin.target_begin = target_count;
    target_count += snap.fin.target_len;
  }

  V3Header h = {};
  std::memcpy(h.magic, kStateV3Magic, sizeof h.magic);
  h.node_count = pag.node_count();
  h.edge_count = pag.edge_count();
  h.fingerprint = pag_fingerprint(pag);
  h.revision = revision_override >= 0
                   ? static_cast<std::uint32_t>(revision_override)
                   : pag.revision();
  h.ctx_count = static_cast<std::uint32_t>(ctx_count);
  h.fin_count = fins.size();
  h.unf_count = unfs.size();
  h.target_count = target_count;
  h.total_size = sizeof(V3Header) + (ctx_count - 1) * sizeof(V3Ctx) +
                 fins.size() * sizeof(V3Fin) + unfs.size() * sizeof(V3Unf) +
                 target_count * sizeof(V3Target);

  std::string out;
  out.reserve(h.total_size);
  append_raw(out, &h, 1);
  for (std::uint64_t id = 1; id < ctx_count; ++id) {
    const CtxId c(static_cast<std::uint32_t>(id));
    const V3Ctx ctx{contexts.pop(c).value(), contexts.top(c).value()};
    append_raw(out, &ctx, 1);
  }
  for (const FinSnap& snap : fins) append_raw(out, &snap.fin, 1);
  append_raw(out, unfs.data(), unfs.size());
  for (const FinSnap& snap : fins)
    append_raw(out, snap.targets.data(), snap.targets.size());
  return write_file_atomic(path, out, error);
}

bool load_sharing_state_v3(const char* data, std::size_t size,
                           const pag::Pag& pag, ContextTable& contexts,
                           JmpStore& store, std::string* error, bool* stale) {
  if (stale != nullptr) *stale = false;
  if (size < sizeof(V3Header)) return fail(error, "truncated v3 header");
  V3Header h;
  std::memcpy(&h, data, sizeof h);
  if (std::memcmp(h.magic, kStateV3Magic, sizeof h.magic) != 0)
    return fail(error, "bad v3 magic");
  if (h.total_size != size) return fail(error, "v3 total size mismatch");
  if (h.node_count != pag.node_count() || h.edge_count != pag.edge_count() ||
      h.fingerprint != pag_fingerprint(pag))
    return fail_stale(error, stale, "state was computed for a different PAG");
  if (h.revision != pag.revision())
    return fail_stale(error, stale,
                      "state was computed at delta epoch " +
                          std::to_string(h.revision) + ", graph is at " +
                          std::to_string(pag.revision()));
  if (h.ctx_count == 0) return fail(error, "bad v3 ctx count");
  if ((h.flags & ~kV3FlagHotKeys) != 0) return fail(error, "unknown v3 flags");
  if ((h.flags & kV3FlagHotKeys) == 0 && h.hot_count != 0)
    return fail(error, "v3 hot count without hot flag");

  // Every count is untrusted: bound each against the file size before any
  // multiply or allocation, then require the sections to tile the file
  // exactly.
  const std::uint64_t ctx_n = h.ctx_count - 1;
  if (ctx_n > size / sizeof(V3Ctx) || h.fin_count > size / sizeof(V3Fin) ||
      h.unf_count > size / sizeof(V3Unf) ||
      h.target_count > size / sizeof(V3Target) ||
      h.hot_count > size / sizeof(std::uint64_t))
    return fail(error, "v3 section counts exceed the file");
  const std::uint64_t need = sizeof(V3Header) + ctx_n * sizeof(V3Ctx) +
                             h.fin_count * sizeof(V3Fin) +
                             h.unf_count * sizeof(V3Unf) +
                             h.target_count * sizeof(V3Target) +
                             h.hot_count * sizeof(std::uint64_t);
  if (need != size) return fail(error, "v3 sections do not tile the file");

  const char* ctx_base = data + sizeof(V3Header);
  const char* fin_base = ctx_base + ctx_n * sizeof(V3Ctx);
  const char* unf_base = fin_base + h.fin_count * sizeof(V3Fin);
  const char* tgt_base = unf_base + h.unf_count * sizeof(V3Unf);
  // A legacy hot section, if any, is the tail after the targets: the tiling
  // check above covers it, and nothing reads it.

  // Contexts, parents-before-children by construction (id order). A fresh
  // receiving table reproduces the file ids exactly — the identity remap that
  // unlocks the bulk-copy target path below.
  const bool fresh = contexts.size() == 1;
  std::vector<CtxId> remap;
  remap.reserve(h.ctx_count);
  remap.push_back(ContextTable::empty());
  bool identity = fresh;
  for (std::uint64_t i = 0; i < ctx_n; ++i) {
    V3Ctx c;
    std::memcpy(&c, ctx_base + i * sizeof(V3Ctx), sizeof c);
    if (c.parent >= remap.size()) return fail(error, "ctx parent unknown");
    const CtxId fresh_id = contexts.push(remap[c.parent], pag::CallSiteId(c.site));
    if (!fresh_id.valid()) return fail(error, "context depth cap on load");
    identity = identity && fresh_id.value() == remap.size();
    remap.push_back(fresh_id);
  }

  // One sequential pass validates every target id against the graph and the
  // ctx section; after this the fast path can memcpy runs without looking at
  // them again.
  for (std::uint64_t i = 0; i < h.target_count; ++i) {
    V3Target t;
    std::memcpy(&t, tgt_base + i * sizeof(V3Target), sizeof t);
    if (t.node >= pag.node_count() || t.ctx >= h.ctx_count)
      return fail(error, "bad v3 target");
  }

  for (std::uint64_t i = 0; i < h.fin_count; ++i) {
    V3Fin f;
    std::memcpy(&f, fin_base + i * sizeof(V3Fin), sizeof f);
    const auto node = static_cast<std::uint32_t>(f.key >> 33);
    const auto ctx = static_cast<std::uint32_t>((f.key >> 1) & 0xffffffffu);
    if (node >= pag.node_count() || ctx >= h.ctx_count)
      return fail(error, "bad v3 fin key");
    if (f.target_len > h.target_count ||
        f.target_begin > h.target_count - f.target_len)
      return fail(error, "v3 fin targets out of range");
    std::vector<JmpTarget> targets(f.target_len);
    const char* run = tgt_base + f.target_begin * sizeof(V3Target);
    if (identity) {
      // An empty run leaves targets.data() null, which memcpy must not see.
      if (f.target_len != 0)
        std::memcpy(targets.data(), run, f.target_len * sizeof(V3Target));
    } else {
      for (std::uint32_t t = 0; t < f.target_len; ++t) {
        V3Target raw;
        std::memcpy(&raw, run + t * sizeof(V3Target), sizeof raw);
        targets[t] = JmpTarget{pag::NodeId(raw.node), remap[raw.ctx], raw.steps};
      }
    }
    const std::uint64_t key =
        identity ? f.key
                 : JmpStore::key(static_cast<Direction>(f.key & 1),
                                 pag::NodeId(node), remap[ctx]);
    store.insert_finished(key, f.cost, std::move(targets));
  }

  for (std::uint64_t i = 0; i < h.unf_count; ++i) {
    V3Unf u;
    std::memcpy(&u, unf_base + i * sizeof(V3Unf), sizeof u);
    const auto node = static_cast<std::uint32_t>(u.key >> 33);
    const auto ctx = static_cast<std::uint32_t>((u.key >> 1) & 0xffffffffu);
    if (u.s == 0 || node >= pag.node_count() || ctx >= h.ctx_count)
      return fail(error, "bad v3 unf entry");
    const std::uint64_t key =
        identity ? u.key
                 : JmpStore::key(static_cast<Direction>(u.key & 1),
                                 pag::NodeId(node), remap[ctx]);
    store.insert_unfinished(key, u.s);
  }
  return true;
}

namespace {

bool load_v3_stream(const std::string& path, const pag::Pag& pag,
                    ContextTable& contexts, JmpStore& store,
                    std::string* error, bool* stale) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open " + path);
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return load_sharing_state_v3(buf.data(), buf.size(), pag, contexts, store,
                               error, stale);
}

}  // namespace

bool load_sharing_state_file_v3(const std::string& path, const pag::Pag& pag,
                                ContextTable& contexts, JmpStore& store,
                                StateLoadMode mode, std::string* error,
                                bool* stale) {
  if (mode != StateLoadMode::kStream) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (mode == StateLoadMode::kMmap)
        return fail(error, "cannot open " + path + ": " + std::strerror(errno));
      return load_v3_stream(path, pag, contexts, store, error, stale);
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      if (mode == StateLoadMode::kMmap)
        return fail(error, "cannot stat " + path);
      return load_v3_stream(path, pag, contexts, store, error, stale);
    }
    const auto map_size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, map_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (map == MAP_FAILED) {
      if (mode == StateLoadMode::kMmap)
        return fail(error, "mmap of " + path + " failed: " + std::strerror(errno));
      return load_v3_stream(path, pag, contexts, store, error, stale);
    }
    const bool ok =
        load_sharing_state_v3(static_cast<const char*>(map), map_size, pag,
                              contexts, store, error, stale);
    ::munmap(map, map_size);
    return ok;
  }
  return load_v3_stream(path, pag, contexts, store, error, stale);
}

}  // namespace parcfl::cfl
