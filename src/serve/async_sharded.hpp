// AsyncShardedIndex — shard-local write queues over a ShardedIndex.
//
// One AsyncAmIndex serializes every write against every search through
// a single in-order queue: a burst of updates anywhere stalls p95
// search latency everywhere. AsyncShardedIndex gives each shard its own
// AsyncAmIndex session — one queue and one dispatcher per shard — so a
// write to shard A never stalls searches that only touch shard B, while
// a scatter-gather search still orders against writes on every shard it
// reads, because its per-shard sub-requests ride those shards' queues.
// Batch coalescing stays per-shard for the same reason.
//
// Ordinals: the fleet keeps ONE search ordinal stream (seeded from the
// ShardedIndex's query serial at construction, handed back at
// shutdown). Every accepted search takes its ordinal at submission
// under the fleet submit mutex and pins it onto each per-shard
// sub-request, so responses are bit-identical to the synchronous
// ShardedIndex serving the same requests in submission order — shard
// queues, coalescing, and dispatcher interleaving never change a
// result. Writes consume no search ordinals.
//
// Routing state: the fleet's own. ShardedIndex keeps the physical row
// count, live rows per shard, the stored vector length and the freed-row
// set as fields, and every submission checks and advances them through
// the same private helpers the synchronous write cores use, under the
// fleet submit mutex. The fields stay exact during the session: the
// fleet owns both front doors (the ShardedIndex and every shard are
// async-claimed, so no other mutator exists), every accepted write is
// fully validated at submission (slot range, liveness, vector length,
// alphabet — a difference from AsyncAmIndex, which defers
// state-dependent checks), and each shard's queue applies its sub-ops in
// submission order, so every accepted write succeeds and leaves the
// shard where the fields already say it is. Rejected submissions
// (Overloaded / ShutDown / validation) consume nothing.
//
// Completion handles: submit() returns a Ticket whose get() gathers the
// per-shard futures on the calling thread, remaps them to global rows
// (bank = shard) and merges them through arch::merge_hits, exactly as
// the synchronous path does. submit_shard() returns a single-shard
// Ticket — the surface the write-interference bench drives. Write
// submissions return a PendingWrite whose receipt carries the global row
// and shard decided at submission time.
//
// Durability: pass one Wal per shard (DurableShardedIndex::shard_wal)
// and each shard session journals its sub-ops — in shard-local
// coordinates, at admission — into its own shard log, exactly as
// AsyncAmIndex + DurableIndex compose for one index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "serve/async_index.hpp"
#include "serve/sharded_index.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::serve {

class AsyncShardedIndex {
 public:
  /// A scatter-gather search in flight: one future per live shard (or
  /// exactly one for submit_shard). get() blocks for every part on the
  /// calling thread, then merges — call it once. If any part failed,
  /// the first error rethrows after all parts settle.
  class Ticket {
   public:
    SearchResponse get();

    Ticket(Ticket&&) = default;
    Ticket& operator=(Ticket&&) = default;

   private:
    friend class AsyncShardedIndex;
    Ticket(const ShardedIndex& fleet, std::size_t k)
        : fleet_(&fleet), k_(k) {}

    const ShardedIndex* fleet_;
    std::size_t k_;
    std::vector<std::pair<std::size_t, std::future<SearchResponse>>> parts_;
  };

  /// A routed write in flight. get() surfaces the shard session's
  /// receipt with the fleet coordinates decided at submission.
  class PendingWrite {
   public:
    WriteReceipt get() {
      WriteReceipt receipt = future_.get();
      receipt.global_row = global_row_;
      receipt.bank = shard_;
      return receipt;
    }
    std::size_t global_row() const noexcept { return global_row_; }
    std::size_t shard() const noexcept { return shard_; }

   private:
    friend class AsyncShardedIndex;
    PendingWrite(std::size_t global_row, std::size_t shard,
                 std::future<WriteReceipt> future)
        : global_row_(global_row), shard_(shard), future_(std::move(future)) {}

    std::size_t global_row_;
    std::size_t shard_;
    std::future<WriteReceipt> future_;
  };

  /// Claims the fleet and every shard, seeds the ordinal stream from the
  /// quiescent ShardedIndex, and opens one AsyncAmIndex per
  /// shard with `base` options (each shard gets its own queue,
  /// dispatcher, and coalescing). `shard_wals`, when non-empty, must
  /// hold one Wal per shard (nullptr entries allowed); each shard
  /// session journals into its own log. The ShardedIndex (and the Wals)
  /// must outlive this object.
  explicit AsyncShardedIndex(ShardedIndex& sharded, AsyncOptions base = {},
                             std::span<Wal* const> shard_wals = {});

  ~AsyncShardedIndex();

  AsyncShardedIndex(const AsyncShardedIndex&) = delete;
  AsyncShardedIndex& operator=(const AsyncShardedIndex&) = delete;

  /// Scatter-gather search: validates exactly as the synchronous fleet
  /// does (typed EmptyIndex when no shard has live rows; k bounded by
  /// the fleet's live count; query length and alphabet), takes one
  /// fleet ordinal, and submits one pinned sub-request per live shard.
  /// Overloaded from any shard queue rejects the whole search with the
  /// serial unmoved (already-queued sibling sub-searches are const
  /// pinned-ordinal reads whose results are dropped — harmless).
  Ticket submit(SearchRequest request);

  /// Serves against a single shard only: consumes one fleet ordinal
  /// (the same stream scatter-gather uses), validates against that
  /// shard's live rows, and never touches any other shard's queue — a
  /// write stalling shard A leaves this path on shard B unaffected.
  Ticket submit_shard(std::size_t shard, const SearchRequest& request);

  /// Routed streaming insert: reuses the lowest freed global row before
  /// appending at the fleet's stored count, exactly as the synchronous
  /// ShardedIndex. Fully validated at submission (see the file
  /// comment); the receipt's destination is decided here.
  PendingWrite submit_insert(std::vector<int> vector);

  /// Routed deletion (out_of_range on a bad global row, logic_error on
  /// a double remove — at submission, where the fleet's state is exact).
  PendingWrite submit_remove(std::size_t global_row);

  /// Routed in-place overwrite; revives a freed slot.
  PendingWrite submit_update(std::size_t global_row, std::vector<int> vector);

  /// Shuts every shard session down (draining their queues — all
  /// futures complete), then hands the fleet serial back to the
  /// ShardedIndex and returns it to synchronous use. Idempotent.
  void shutdown();

  bool shut_down() const;

  /// Ordinal the next unpinned search submission will take.
  std::uint64_t query_serial() const;

  /// The per-shard session, for stats and tuning introspection.
  const AsyncAmIndex& shard_session(std::size_t shard) const {
    return *sessions_.at(shard);
  }

  std::size_t shard_count() const noexcept { return sessions_.size(); }

 private:
  void check_open() const REQUIRES(submit_mutex_);

  ShardedIndex& sharded_;
  std::vector<std::unique_ptr<AsyncAmIndex>> sessions_;

  /// Guards the fleet ordinal stream and the fleet's routing state while
  /// the session owns it; makes admission + ordinal assignment + the
  /// routing advance atomic.
  mutable util::Mutex submit_mutex_;
  std::uint64_t serial_ GUARDED_BY(submit_mutex_) = 0;
  bool shutdown_ GUARDED_BY(submit_mutex_) = false;
};

}  // namespace ferex::serve
