// Durable sharded serving: per-shard DurableIndex dirs plus a manifest.
//
// DurableShardedIndex composes PR 7's per-index durability across a
// ShardedIndex fleet: each shard owns a full DurableIndex directory
//
//   <dir>/manifest.ferex          atomic manifest (topology + counts)
//   <dir>/shard-<s>/snapshot.ferex
//   <dir>/shard-<s>/wal.ferex     per-shard log, shard-LOCAL coordinates
//
// and a fleet manifest — written via util::atomic_write_file, so it is
// always either the previous complete manifest or the new one — records
// the routing topology (shard count, shard_block, backend, bank rows),
// the per-shard row counts at manifest time, and the fleet query
// serial. The counts are informational: single-row writes leave them
// stale by design, so recovery never compares them (the dense-image
// check below catches a shard whose count disagrees). Construction
// recovers: a damaged manifest is a typed CorruptSnapshot or
// SnapshotMismatch, the manifest's topology is checked against the
// fleet's options (SnapshotMismatch names the first field that
// disagrees), each shard replays its own snapshot + WAL through
// DurableIndex, routing is rebuilt from the recovered shards, and the
// reassembled fleet must be a dense routing image — every shard's
// stored count equal to rows_for_shard(s, total) — or SnapshotMismatch
// fires (a lost or cross-wired shard directory cannot masquerade as a
// smaller fleet). Shard state present without a manifest is also a
// SnapshotMismatch: a cold start writes the manifest before any shard
// file exists, so a missing manifest over real shard state can only be
// tampering, never a crash footprint.
//
// Journal ordering differs from DurableIndex, deliberately. DurableIndex
// journals before applying and relies on replay refailing a journaled
// bad op *identically*. Here fleet-level validation (routing, fleet
// dims) is stronger than shard-level validation, so a journaled-then-
// rejected fleet op would NOT refail at shard replay — it could apply.
// Instead the synchronous path applies first and journals only ops the
// fleet accepted: the single-threaded mutation front door makes log
// order equal apply order, and with SyncPolicy::kEveryAppend a mutation
// is on stable storage before it returns — commit still implies
// durable; a crash mid-call loses only that unacknowledged op. The
// async path keeps journal-before-apply (AsyncAmIndex appends at
// admission): hand shard_wals() to AsyncShardedIndex, whose submit-
// time full validation guarantees accepted sub-ops never fail.
//
// store() journals configure + store per shard, except for a shard it
// leaves empty: no WAL record can empty a shard, so that shard is
// checkpointed instead, as DurableIndex::compact does.
//
// One fleet-wide caveat: store() and configure() touch every shard's
// log, and a crash partway through the fan-out leaves some shard logs
// with the op and others without. Recovery detects this (the dense-
// image check) and throws SnapshotMismatch rather than serving a
// silently mixed fleet; single-row mutations (the serving workload)
// touch exactly one log and recover cleanly at every crash point.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/durable.hpp"
#include "serve/sharded_index.hpp"

namespace ferex::serve {

class DurableShardedIndex {
 public:
  /// Recovers `fleet` from `dir` (which must exist; shard subdirs are
  /// created as needed). A directory with no manifest and no shard
  /// state is a cold start: the manifest is written first, so a crash
  /// anywhere in construction recovers. The fleet must be freshly
  /// constructed (recovery replays into it); to persist a fleet that
  /// already holds rows, wrap it and call checkpoint(). Throws
  /// std::invalid_argument, before `dir` is touched, when
  /// options.compact_free_fraction is nonzero: the fleet supports no
  /// compaction trigger (a shard compacting on its own would move rows
  /// behind the fleet's routing).
  DurableShardedIndex(ShardedIndex& fleet, std::string dir,
                      DurableOptions options = {});

  /// Journaled mutations — same semantics and exceptions as the fleet's
  /// entry points. Rejected ops journal nothing (see the file comment).
  void configure(csp::DistanceMetric metric, int bits);
  void store(const std::vector<std::vector<int>>& database);
  WriteReceipt insert(std::span<const int> vector);
  WriteReceipt remove(std::size_t global_row);
  WriteReceipt update(std::size_t global_row, std::span<const int> vector);

  /// Checkpoints every shard (snapshot + WAL rotation, crash-safe per
  /// shard), then rewrites the manifest with the current counts and
  /// fleet serial.
  void checkpoint();

  ShardedIndex& index() noexcept { return fleet_; }
  const ShardedIndex& index() const noexcept { return fleet_; }

  /// The live per-shard WAL — pass the full set to AsyncShardedIndex
  /// (its ctor takes one Wal* per shard) for async journaling.
  Wal& shard_wal(std::size_t shard) { return shards_.at(shard)->wal(); }
  std::vector<Wal*> shard_wals();

  std::string manifest_path() const { return dir_ + "/manifest.ferex"; }
  std::string shard_dir(std::size_t shard) const {
    return dir_ + "/shard-" + std::to_string(shard);
  }

 private:
  void assert_sync_ownership();
  /// Encode + failpoint-bracketed atomic write of the manifest
  /// (failpoint sites "sharded.manifest.before_write" / "...after_write"
  /// for crash sweeps, plus util's sites inside atomic_write_file).
  void write_manifest();

  ShardedIndex& fleet_;
  std::string dir_;
  DurableOptions options_;
  std::vector<std::unique_ptr<DurableIndex>> shards_;
};

}  // namespace ferex::serve
