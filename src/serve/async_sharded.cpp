#include "serve/async_sharded.hpp"

#include <exception>
#include <stdexcept>

#include "arch/merge_hits.hpp"

namespace ferex::serve {

AsyncShardedIndex::AsyncShardedIndex(ShardedIndex& sharded, AsyncOptions base,
                                     std::span<Wal* const> shard_wals)
    : sharded_(sharded) {
  if (!shard_wals.empty() && shard_wals.size() != sharded_.shard_count()) {
    throw std::invalid_argument(
        "AsyncShardedIndex: shard_wals.size() != shard count");
  }
  // Claim the fleet first: from here on no synchronous mutator can move
  // the routing state, and only submissions under the submit mutex
  // advance it.
  sharded_.claim_async_owner();
  try {
    serial_ = sharded_.query_serial();
    sessions_.reserve(sharded_.shard_count());
    for (std::size_t s = 0; s < sharded_.shard_count(); ++s) {
      AsyncOptions options = base;
      options.wal = shard_wals.empty() ? nullptr : shard_wals[s];
      // Each session claims its shard and spawns its own dispatcher —
      // the shard-local queues that keep one shard's writes out of
      // every other shard's way.
      sessions_.push_back(
          std::make_unique<AsyncAmIndex>(sharded_.shard(s), options));
    }
  } catch (...) {
    // Mid-construction failure: unwind the shard sessions that did
    // open (their destructors drain and release their shards) and hand
    // the fleet back, or it stays locked behind the guard forever.
    sessions_.clear();
    sharded_.release_async_owner();
    throw;
  }
}

AsyncShardedIndex::~AsyncShardedIndex() { shutdown(); }

void AsyncShardedIndex::check_open() const {
  if (shutdown_) {
    throw ShutDown("AsyncShardedIndex: submit after shutdown");
  }
}

AsyncShardedIndex::Ticket AsyncShardedIndex::submit(SearchRequest request) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  sharded_.validate_request(request);
  const std::uint64_t ordinal = request.ordinal ? *request.ordinal : serial_;
  Ticket ticket(sharded_, request.k);
  ticket.parts_.reserve(sessions_.size());
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    // The synchronous scatter's per-shard k: a shard whose rows are all
    // removed (counting every write already queued) is never asked — no
    // search, no noise draws.
    const std::size_t k = sharded_.shard_k(s, request.k);
    if (k == 0) continue;
    // The deadline budget and priority ride onto every sub-request —
    // each shard session enforces them against its own queue (the
    // shard-local analogue of the per-class budgets).
    SearchRequest sub(request.query, k, ordinal, request.submit);
    // Overloaded from a full shard queue rejects the whole search with
    // the serial unmoved (advanced only below, after every shard
    // accepted); sibling sub-searches already queued are const
    // pinned-ordinal reads whose futures this abandoned ticket drops.
    ticket.parts_.emplace_back(s, sessions_[s]->submit(std::move(sub)));
  }
  if (!request.ordinal) serial_ = ordinal + 1;
  return ticket;
}

AsyncShardedIndex::Ticket AsyncShardedIndex::submit_shard(
    std::size_t shard, const SearchRequest& request) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  sharded_.validate_shard_request(shard, request);
  const std::uint64_t ordinal = request.ordinal ? *request.ordinal : serial_;
  SearchRequest sub = request;
  sub.ordinal = ordinal;
  Ticket ticket(sharded_, request.k);
  ticket.parts_.emplace_back(shard, sessions_[shard]->submit(std::move(sub)));
  if (!request.ordinal) serial_ = ordinal + 1;
  return ticket;
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_insert(
    std::vector<int> vector) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  const std::size_t global = sharded_.check_insert(vector);
  const std::size_t shard = sharded_.shard_of(global);
  const std::size_t length = vector.size();
  auto future = sessions_[shard]->submit_insert(std::move(vector));
  // Accepted (an Overloaded throw above leaves the fleet untouched):
  // advance the routing state exactly as the shard's queue will advance
  // the shard.
  sharded_.record_live(global, length);
  return PendingWrite(global, shard, std::move(future));
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_remove(
    std::size_t global_row) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  sharded_.check_remove(global_row);
  const std::size_t shard = sharded_.shard_of(global_row);
  auto future = sessions_[shard]->submit_remove(sharded_.to_local(global_row));
  sharded_.record_removed(global_row);
  return PendingWrite(global_row, shard, std::move(future));
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_update(
    std::size_t global_row, std::vector<int> vector) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  sharded_.check_update(global_row, vector);
  const std::size_t shard = sharded_.shard_of(global_row);
  const std::size_t length = vector.size();
  auto future =
      sessions_[shard]->submit_update(sharded_.to_local(global_row),
                                      std::move(vector));
  sharded_.record_live(global_row, length);
  return PendingWrite(global_row, shard, std::move(future));
}

void AsyncShardedIndex::shutdown() {
  std::uint64_t final_serial = 0;
  {
    util::MutexLock lock(submit_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    final_serial = serial_;
  }
  // Drain every shard session: all accepted futures complete, each
  // shard's serial hands back, each shard returns to synchronous use.
  for (auto& session : sessions_) session->shutdown();
  // Fleet serial handoff while still owning the ShardedIndex (the
  // guarded setter would reject its own owner), then release it back to
  // synchronous use. The shard sessions are drained and joined, so this
  // wrapper is the sole serialized actor. The routing state needs no
  // handoff: every accepted write already advanced it.
  sharded_.assert_async_serialized();
  sharded_.set_query_serial_unguarded(final_serial);
  sharded_.release_async_owner();
}

bool AsyncShardedIndex::shut_down() const {
  util::MutexLock lock(submit_mutex_);
  return shutdown_;
}

std::uint64_t AsyncShardedIndex::query_serial() const {
  util::MutexLock lock(submit_mutex_);
  return serial_;
}

SearchResponse AsyncShardedIndex::Ticket::get() {
  std::vector<std::vector<Hit>> parts(fleet_->shard_count());
  std::exception_ptr first_error;
  // Settle every part before deciding: abandoning later futures on an
  // early throw would discard results the dispatchers still complete.
  for (auto& [shard, future] : parts_) {
    try {
      parts[shard] = fleet_->from_shard(shard, future.get()).hits;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  // The exact merge the synchronous path runs — one implementation, so
  // sync and async gathers cannot drift. A submit_shard ticket holds one
  // part, which the merge passes through.
  return {arch::merge_hits(parts, k_)};
}

}  // namespace ferex::serve
