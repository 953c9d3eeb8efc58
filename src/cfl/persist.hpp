#pragma once
// Persistence for the shared analysis state (context table + jmp store).
//
// The paper's data sharing lives within one batch run; the incremental
// analyses it cites ([6], [16]) reuse previously computed CFL-reachable
// paths across runs. This module provides that reuse for unchanged programs:
// a run can save its jmp edges and reload them later, so a warm-started
// batch takes shortcuts from step one. State is only meaningful for the
// exact PAG it was computed on — a fingerprint is stored and checked.
//
// Format v3 — the one state format (binary, native-endian, mmap-able).
// Layout:
//
//   [V3Header 72B] [ctx: (ctx_count-1) × {u32 parent, u32 site}]
//   [fin: fin_count × {u64 key, u64 target_begin, u32 cost, u32 target_len}]
//   [unf: unf_count × {u64 key, u32 s, u32 pad}]
//   [targets: target_count × {u32 node, u32 ctx, u32 steps}]
//   [hot: hot_count × u64]                     (present iff flags bit 0)
//
// Section strides are 8-byte multiples except the target array (12B =
// sizeof(JmpTarget)). Entries are key-sorted at save time, so equal state
// produces byte-identical files. The trailing hot section is legacy: earlier
// builds wrote index root keys there to re-seed a background index builder
// after reopen. This build writes flags = 0 and hot_count = 0; the loader
// still validates a flagged section (count bounded, file tiled exactly) and
// skips it, so spills written by those builds still load.
//
// The header carries the graph guard: node and edge count, fingerprint and
// the delta epoch (Pag::revision() at save time). A session that applied
// incremental updates (pag::apply_delta) therefore never feeds state from
// one epoch into another, even when the graphs collide structurally (a delta
// applied and then reverted — the fingerprint matches, the revision does
// not). It also carries every section count and the total file size; each
// count is bounded against the actual byte count before any multiply or
// allocation, and the sections must tile the file exactly, so a hostile or
// corrupt file cannot demand unbounded memory or read out of bounds. Any
// other input — including a leftover text state from an older build — fails
// the magic check and is rejected before anything is touched.
//
// Context ids are remapped on load (the receiving table may already hold
// other contexts), so state can be merged into a live analysis. The fast
// path: reopening an evicted session loads into a *fresh* ContextTable,
// where pushing the ctx section in file order reproduces the file's ids
// exactly (identity remap). Finished-jmp target arrays are then
// bulk-memcpy'd straight out of the mapped file — no per-target id
// translation. A non-empty receiving table takes the per-target remap.

#include <cstdint>
#include <string>

#include "cfl/context.hpp"
#include "cfl/jmp_store.hpp"
#include "pag/pag.hpp"

namespace parcfl::cfl {

/// Order-independent structural fingerprint of a PAG (used to refuse state
/// computed for a different graph).
std::uint64_t pag_fingerprint(const pag::Pag& pag);

/// Crash-safe whole-file write: tmp sibling + fsync + rename. Shared by the
/// state writer here and by the session manager's graph spill.
bool write_file_atomic(const std::string& path, const std::string& data,
                       std::string* error = nullptr);

// ---- v3 binary format ------------------------------------------------------

/// First 8 bytes of every v3 state file.
inline constexpr char kStateV3Magic[8] = {'p', 'c', 'f', 'l', 's', 't', '3',
                                          '\n'};

/// How load_sharing_state_file_v3 gets the bytes. kMmap maps the file
/// read-only and parses in place (the zero-copy reopen path); kStream reads
/// it through a heap buffer; kAuto prefers mmap and falls back to stream.
enum class StateLoadMode { kAuto, kMmap, kStream };

/// Serialise to the v3 binary format (key-sorted, deterministic) and save
/// crash-safely to `path`: the image is written to a temporary sibling file,
/// flushed to disk (fsync), and renamed into place, so a process killed
/// mid-save never leaves a torn state file — the previous state file, if
/// any, survives intact. Safe to call while solvers are concurrently
/// inserting into the store: the snapshot is one lock-free, epoch-pinned
/// pass into memory, and no store access overlaps the file I/O. Returns
/// false and fills *error on any I/O failure.
///
/// `revision_override` (≥ 0) replaces the stored delta epoch: the session
/// manager's evict path spills an updated graph *and* its state together, and
/// stamps the pair as epoch 0 so a reopen — which reads the spilled graph
/// back at epoch 0 — accepts the state it was saved with.
bool save_sharing_state_file_v3(const std::string& path, const pag::Pag& pag,
                                const ContextTable& contexts,
                                const JmpStore& store,
                                std::string* error = nullptr,
                                std::int64_t revision_override = -1);

/// Parse a v3 image already in memory (mapped or buffered) and merge it
/// into possibly non-empty contexts/store. Validates fingerprint, revision,
/// every count and every id before use; returns false and fills *error on
/// malformed input or a graph mismatch. A legacy hot section is validated
/// and skipped. `stale`, when non-null, is set to true exactly when the input
/// is a well-formed image for a *different* graph or delta epoch — the
/// session manager unlinks such spills instead of letting them shadow future
/// saves.
bool load_sharing_state_v3(const char* data, std::size_t size,
                           const pag::Pag& pag, ContextTable& contexts,
                           JmpStore& store, std::string* error = nullptr,
                           bool* stale = nullptr);

/// Read `path` (per `mode`) and load_sharing_state_v3 from it. A missing,
/// empty or unreadable file fails like a malformed one.
bool load_sharing_state_file_v3(const std::string& path, const pag::Pag& pag,
                                ContextTable& contexts, JmpStore& store,
                                StateLoadMode mode = StateLoadMode::kAuto,
                                std::string* error = nullptr,
                                bool* stale = nullptr);

}  // namespace parcfl::cfl
