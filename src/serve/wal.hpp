// Write-ahead log for the mutable serving path.
//
// Every mutation (configure / store / insert / remove / update) is
// journaled as one CRC-framed record *before* it applies, so a crash at
// any instant loses at most unacknowledged work and recovery replays the
// exact serialized order. Async writes are journaled at admission
// (inside AsyncAmIndex::admit_write, under the submit mutex), and the
// session's one dispatcher applies them in that order, so the log order
// equals the apply order.
//
// On-disk layout (all little-endian):
//
//   header:  8-byte magic "FEREXWAL", u32 version
//   record:  u32 length | u32 crc | payload[length]
//            crc = CRC-32 over (length bytes || payload)
//   payload: u64 seq, u8 opcode, operands (see WalOp)
//
// Recovery semantics:
//   * a torn tail — an incomplete final record (length header cut short,
//     payload shorter than its length, or a CRC mismatch on the final
//     record) — is dropped by truncating at the last valid record;
//   * corruption anywhere *before* the tail is a typed CorruptLog
//     naming the byte offset — never UB, never a silently wrong replay;
//   * sequence numbers are consecutive within a log; the snapshot's
//     watermark (last applied seq) makes replay idempotent — records at
//     or below it are skipped, so replaying the same log twice is a
//     no-op past the watermark.
//
// All file I/O goes through util::durable_file (the raw-file-io lint
// rule keeps fopen/ofstream out of src/serve).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "csp/distance_matrix.hpp"
#include "util/durable_file.hpp"

namespace ferex::serve {

/// Malformed WAL bytes before the tail (a torn tail is not an error —
/// it recovers by truncation). `offset()` is the byte position of the
/// corrupt record within the log file. Not a request rejection — no
/// caller retries past corruption — so it stays off RejectedRequest.
class CorruptLog : public std::runtime_error {  // ferex-lint: allow(rejection-base)
 public:
  CorruptLog(std::uint64_t offset, const std::string& what)
      : std::runtime_error("corrupt WAL at byte " + std::to_string(offset) +
                           ": " + what),
        offset_(offset) {}

  std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::uint64_t offset_;
};

/// Journaled operation kinds.
enum class WalOp : std::uint8_t {
  kConfigure = 1,  ///< metric/bits (+ composite flag)
  kStore = 2,      ///< full database replace
  kInsert = 3,     ///< one vector
  kRemove = 4,     ///< one global row
  kUpdate = 5,     ///< one global row + vector
};

/// One decoded log record.
struct WalRecord {
  std::uint64_t seq = 0;
  WalOp op = WalOp::kInsert;
  std::size_t row = 0;                     ///< remove / update
  std::vector<std::vector<int>> vectors;   ///< store (n) / insert / update (1)
  csp::DistanceMetric metric = csp::DistanceMetric::kHamming;  ///< configure
  int bits = 0;                            ///< configure
  bool composite = false;                  ///< configure
};

/// Result of scanning a log file.
struct WalReadResult {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< end offset of the last valid record
  bool torn_tail = false;         ///< trailing bytes after valid_bytes
};

/// Scans `path`. A missing file yields an empty result; a torn tail is
/// reported (not repaired) via `torn_tail`/`valid_bytes`; corruption
/// before the tail throws CorruptLog with the offset.
WalReadResult read_wal(const std::string& path);

/// Scans `path` once, as read_wal does, and truncates a torn tail in
/// place at the scan's `valid_bytes` (no-op on a clean or missing log).
/// Returns that scan: its records are exactly the repaired log's, and
/// `torn_tail` says whether a tail was dropped. Corruption before the
/// tail throws CorruptLog without touching the file.
WalReadResult repair_wal(const std::string& path);

/// Append-side handle. Appends are not internally synchronized: callers
/// serialize them (the sync front door is single-threaded by the
/// MutationWhileServed guard; the async front door journals under its
/// submit mutex).
class Wal {
 public:
  /// Opens `path` for append (creating it, with a fresh header, when
  /// missing or empty). `next_seq` seeds the sequence counter — after
  /// recovery, pass one past the last replayed record.
  Wal(std::string path, util::SyncPolicy policy, std::uint64_t next_seq = 1);

  /// Each append journals one record and returns its sequence number.
  std::uint64_t append_configure(csp::DistanceMetric metric, int bits,
                                 bool composite);
  std::uint64_t append_store(const std::vector<std::vector<int>>& database);
  std::uint64_t append_insert(std::span<const int> vector);
  std::uint64_t append_remove(std::size_t global_row);
  std::uint64_t append_update(std::size_t global_row,
                              std::span<const int> vector);

  /// Sequence number the next append will use.
  std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Bytes in the log (header + records appended or pre-existing).
  std::uint64_t size() const noexcept { return file_.size(); }

  const std::string& path() const noexcept { return file_.path(); }

  /// Flushes and closes; further appends throw.
  void close() { file_.close(); }

 private:
  std::uint64_t append_record(const WalRecord& record);

  util::AppendFile file_;
  std::uint64_t next_seq_;
};

}  // namespace ferex::serve
