// Versioned, checksummed binary snapshots of full index state.
//
// A snapshot captures everything a warm restart needs for bit-identical
// serving: the stored database, the live (tombstone) mask, the
// per-device fabrication arrays (Vth offsets, resistances), the serving
// ordinal counter, the variation-RNG stream position, and the WAL
// watermark (last applied sequence number). Restoring it into a
// freshly constructed index with the same options reproduces currents
// and hits bit for bit — including the variation draws of every
// subsequent insert.
//
// On-disk layout (little-endian):
//
//   magic "FEREXSNP" | u32 version | u32 crc(payload) | u64 payload size
//   payload: u8 backend kind, u8 fidelity, u8 composite, u32 metric,
//            u32 bits, u64 wal watermark, u64 serving query serial,
//            backend state (engine: geometry + database + live mask +
//            u64 reserved + rng + fabrication arrays; banked: bank_rows +
//            u64 reserved + per-bank offsets and engine states)
//
// The two reserved u64 fields are written as 0 and ignored on read, so
// snapshots from builds that kept per-backend query serials there (the
// index alone owns ordinals now) still load.
//
// Error taxonomy: any malformed byte (truncation, oversize, bit flip)
// is a typed encode::CorruptSnapshot naming the offset; a *valid*
// snapshot taken under a different backend, fidelity, or geometry is a
// typed SnapshotMismatch naming what differs. Never UB, never a
// silently wrong index.
//
// The codec knows no backend: it persists AmIndex::backend_state() and
// installs through AmIndex::restore_state(). Its one branch is the v1
// layout (bank_rows 0 is a single macro). The whole payload, each header
// field range-checked as it is read, is parsed before the index is
// touched.
//
// Options are not serialized: the caller constructs the index with the
// deployment's own FerexOptions/BankedOptions; restore_state() re-runs
// configure with the recorded metric/bits before installing state.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/am_index.hpp"

namespace ferex::serve {

/// A structurally valid snapshot that does not fit the index it is
/// being restored into (wrong backend kind, fidelity, or geometry).
/// Index-state damage, not a request rejection, so it deliberately
/// does not derive from RejectedRequest.
class SnapshotMismatch : public std::runtime_error {  // ferex-lint: allow(rejection-base)
 public:
  explicit SnapshotMismatch(const std::string& what)
      : std::runtime_error("snapshot mismatch: " + what) {}
};

/// Serializes the index's backend_state() (a backend without one throws
/// std::invalid_argument). `wal_watermark` is the last WAL sequence
/// number already reflected in this state.
std::vector<std::uint8_t> encode_snapshot(const AmIndex& index,
                                          std::uint64_t wal_watermark);

/// Decodes and installs a snapshot into a freshly constructed index of
/// the matching backend kind, re-running configure() with the recorded
/// metric/bits. Returns the WAL watermark. Throws encode::CorruptSnapshot
/// on malformed bytes, SnapshotMismatch on a wrong-backend/fidelity/
/// geometry snapshot.
std::uint64_t install_snapshot(AmIndex& index,
                               const std::vector<std::uint8_t>& bytes);

/// encode_snapshot + crash-safe write (util::atomic_write_file): a crash
/// mid-save leaves the previous snapshot intact.
void save_snapshot(const AmIndex& index, const std::string& path,
                   std::uint64_t wal_watermark);

/// Reads and installs `path`. Throws std::system_error when the file is
/// missing (recovery decides whether a cold start is acceptable via
/// util::read_file directly — see serve::recover_index).
std::uint64_t load_snapshot(AmIndex& index, const std::string& path);

}  // namespace ferex::serve
