// Durable serving: WAL-fronted mutations, checkpoints, and recovery.
//
// DurableIndex wraps an AmIndex with the write-ahead protocol: every
// synchronous mutation journals one WAL record *before* it applies, so
// a crash at any instant is recoverable to the exact serialized state —
// recovery (snapshot + replay) is bit-identical, currents and hits, to
// the uninterrupted run. Asynchronous sessions journal through the same
// log: hand wal() to AsyncAmIndex (AsyncOptions::wal), which appends at
// admission under its submit mutex and serves its queue in order, so
// log order equals apply order.
//
//   serve::EngineIndex index(options);
//   serve::DurableIndex durable(index, "/data/ferex");   // recovers
//   durable.configure(csp::DistanceMetric::kHamming, 2); // journaled
//   durable.store(db);                                   // journaled
//   durable.insert(vec);  durable.remove(3);             // journaled
//   durable.checkpoint();  // snapshot + WAL rotation
//
// Failed mutations are journaled too (the record lands before
// validation inside the backend): replay re-applies the record, fails
// with the same typed error, and swallows it — exactly the no-op the
// live run saw. Compaction is not journaled; it checkpoints instead
// (the snapshot captures the compacted layout, provably bit-identical
// to a fresh store() of the survivors).
//
// The layer knows no backend: composite configures, compaction and
// snapshots go through AmIndex's backend-state interface, and a backend
// without an operation throws std::invalid_argument before any record
// is journaled.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/am_index.hpp"
#include "serve/wal.hpp"

namespace ferex::serve {

struct DurableOptions {
  /// WAL fsync policy: kEveryAppend makes every acknowledged mutation
  /// durable (commit == stable storage); kOnClose/kNever trade the tail
  /// for append throughput (bench_serve --durability quantifies it).
  util::SyncPolicy sync = util::SyncPolicy::kEveryAppend;

  /// After a remove, compact (and checkpoint) when the freed-slot
  /// fraction reaches this threshold. 0 disables the trigger; compact()
  /// stays available manually.
  double compact_free_fraction = 0.0;
};

/// Replays `dir`'s durable state (snapshot, if any, then WAL records
/// past its watermark; a torn WAL tail is truncated first) into a
/// freshly constructed index. Returns the last applied sequence number
/// (0 when the directory holds no state — a cold start). Throws
/// encode::CorruptSnapshot / CorruptLog / SnapshotMismatch on damage
/// that truncation cannot explain.
std::uint64_t recover_index(AmIndex& index, const std::string& dir);

class DurableIndex {
 public:
  /// Recovers `index` from `dir` (which must exist), then opens the WAL
  /// for append, continuing the recovered sequence numbering.
  DurableIndex(AmIndex& index, std::string dir, DurableOptions options = {});

  /// Journaled mutations — same semantics and exceptions as the wrapped
  /// index's entry points, with one WAL record appended first.
  void configure(csp::DistanceMetric metric, int bits);
  /// Journaled AmIndex::configure_composite. A backend other than a
  /// single macro throws std::invalid_argument before journaling; a
  /// composite record replayed into one is a SnapshotMismatch.
  void configure_composite(csp::DistanceMetric metric, int bits);
  void store(const std::vector<std::vector<int>>& database);
  WriteReceipt insert(std::span<const int> vector);
  WriteReceipt remove(std::size_t global_row);
  WriteReceipt update(std::size_t global_row, std::span<const int> vector);

  /// Snapshot the full index state, then rotate the WAL (records at or
  /// below the snapshot's watermark are dropped). Crash-safe at every
  /// instant: the snapshot write is atomic, and replay past the
  /// watermark is idempotent.
  void checkpoint();

  /// Tombstone compaction (AmIndex::compact(), bit-identical to a fresh
  /// store() of the survivors) followed by a checkpoint. Returns the
  /// slots reclaimed.
  std::size_t compact();

  /// Last journaled sequence number (every earlier record is applied or
  /// deterministically failed).
  std::uint64_t last_seq() const noexcept { return wal_->next_seq() - 1; }

  AmIndex& index() noexcept { return index_; }
  const AmIndex& index() const noexcept { return index_; }

  /// The live WAL — pass to AsyncOptions::wal for async journaling.
  Wal& wal() noexcept { return *wal_; }

  std::string snapshot_path() const { return dir_ + "/snapshot.ferex"; }
  std::string wal_path() const { return dir_ + "/wal.ferex"; }

 private:
  /// Asserts the synchronous mutation capability (throws
  /// MutationWhileServed while an AsyncAmIndex owns the index) before
  /// anything is journaled — a rejected mutation must leave no record.
  void assert_sync_ownership();
  void maybe_compact();

  AmIndex& index_;
  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<Wal> wal_;
};

}  // namespace ferex::serve
