#include "serve/durable.hpp"

#include <stdexcept>
#include <utility>

#include "serve/snapshot.hpp"
#include "util/durable_file.hpp"
#include "util/failpoint.hpp"

namespace ferex::serve {

namespace {

/// Composite encodings exist on a single macro only (bank_rows 0); a
/// backend without a state has none either.
bool single_macro(const AmIndex& index) {
  try {
    return index.backend_state().bank_rows == 0;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

void apply_record(AmIndex& index, const WalRecord& record) {
  switch (record.op) {
    case WalOp::kConfigure:
      if (record.composite) {
        if (!single_macro(index)) {
          // Not a deterministic live failure (the live run journaled
          // this through a single macro): recovering into the wrong
          // backend must surface, not be swallowed as a replayed no-op.
          throw SnapshotMismatch(
              "WAL has a composite configure, index is not a single macro");
        }
        index.configure_composite(record.metric, record.bits);
      } else {
        index.configure(record.metric, record.bits);
      }
      break;
    case WalOp::kStore:
      index.store(record.vectors);
      break;
    case WalOp::kInsert:
      index.insert(record.vectors.front());
      break;
    case WalOp::kRemove:
      index.remove(record.row);
      break;
    case WalOp::kUpdate:
      index.update(record.row, record.vectors.front());
      break;
  }
}

}  // namespace

std::uint64_t recover_index(AmIndex& index, const std::string& dir) {
  const std::string snapshot_path = dir + "/snapshot.ferex";
  const std::string wal_path = dir + "/wal.ferex";

  std::uint64_t watermark = 0;
  std::vector<std::uint8_t> bytes;
  if (util::read_file(snapshot_path, bytes)) {
    watermark = install_snapshot(index, bytes);
  }

  // A torn tail is the signature of a crash mid-append: the op was never
  // acknowledged as applied, so dropping it is the correct recovery.
  // Anything else malformed throws CorruptLog from the scan. The one
  // read and scan that find the tail also yield the records to replay.
  const WalReadResult scan = repair_wal(wal_path);
  std::uint64_t last = watermark;
  for (const WalRecord& record : scan.records) {
    // Watermark skip makes replay idempotent: records the snapshot
    // already reflects (or a second replay of the same log) are no-ops.
    if (record.seq <= watermark) continue;
    try {
      apply_record(index, record);
    } catch (const SnapshotMismatch&) {
      throw;
    } catch (const std::logic_error&) {
      // Deterministic validation failure (double remove, bad vector,
      // out-of-range row...): the live run journaled the op before it
      // failed identically, so the replayed no-op *is* bit-identity.
    }
    last = record.seq;
  }
  return last;
}

DurableIndex::DurableIndex(AmIndex& index, std::string dir,
                           DurableOptions options)
    : index_(index), dir_(std::move(dir)), options_(options) {
  const std::uint64_t last = recover_index(index_, dir_);
  wal_ = std::make_unique<Wal>(wal_path(), options_.sync, last + 1);
}

void DurableIndex::assert_sync_ownership() {
  // The guarded serial setter runs check_mutable and changes nothing:
  // it throws the typed MutationWhileServed while an AsyncAmIndex owns
  // the index, before this mutation journals anything.
  index_.set_query_serial(index_.query_serial());
}

void DurableIndex::configure(csp::DistanceMetric metric, int bits) {
  assert_sync_ownership();
  wal_->append_configure(metric, bits, /*composite=*/false);
  index_.configure(metric, bits);
}

void DurableIndex::configure_composite(csp::DistanceMetric metric, int bits) {
  assert_sync_ownership();
  if (!single_macro(index_)) {
    throw std::invalid_argument(
        "DurableIndex::configure_composite: single-macro backend required");
  }
  wal_->append_configure(metric, bits, /*composite=*/true);
  index_.configure_composite(metric, bits);
}

void DurableIndex::store(const std::vector<std::vector<int>>& database) {
  assert_sync_ownership();
  wal_->append_store(database);
  index_.store(database);
}

WriteReceipt DurableIndex::insert(std::span<const int> vector) {
  assert_sync_ownership();
  wal_->append_insert(vector);
  return index_.insert(vector);
}

WriteReceipt DurableIndex::remove(std::size_t global_row) {
  assert_sync_ownership();
  wal_->append_remove(global_row);
  WriteReceipt receipt = index_.remove(global_row);
  maybe_compact();
  return receipt;
}

WriteReceipt DurableIndex::update(std::size_t global_row,
                                  std::span<const int> vector) {
  assert_sync_ownership();
  wal_->append_update(global_row, vector);
  return index_.update(global_row, vector);
}

void DurableIndex::checkpoint() {
  assert_sync_ownership();
  const std::uint64_t watermark = last_seq();
  util::failpoint_hit("durable.checkpoint.before_snapshot");
  save_snapshot(index_, snapshot_path(), watermark);
  util::failpoint_hit("durable.checkpoint.after_snapshot");
  // Rotate: every journaled record is at or below the watermark now, so
  // the log restarts empty. A crash anywhere in this window recovers —
  // the snapshot write is atomic (old or new, never mixed), and replay
  // skips records at or below the installed snapshot's watermark.
  wal_->close();
  util::remove_file(wal_path());
  wal_ = std::make_unique<Wal>(wal_path(), options_.sync, watermark + 1);
}

std::size_t DurableIndex::compact() {
  assert_sync_ownership();
  const std::size_t freed = index_.compact();
  // Compaction is not a journaled op (it rewrites physical layout, not
  // logical content): the checkpoint snapshot captures the compacted
  // state instead, so recovery never replays across the rewrite.
  checkpoint();
  return freed;
}

void DurableIndex::maybe_compact() {
  if (options_.compact_free_fraction <= 0.0) return;
  const std::size_t stored = index_.stored_count();
  if (stored == 0) return;
  const std::size_t freed = stored - index_.live_count();
  if (static_cast<double>(freed) <
      options_.compact_free_fraction * static_cast<double>(stored)) {
    return;
  }
  compact();
}

}  // namespace ferex::serve
