#include "serve/async_index.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "serve/wal.hpp"

namespace ferex::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

AsyncOptions sanitized(AsyncOptions options) {
  options.queue_depth = std::max<std::size_t>(1, options.queue_depth);
  options.max_batch = std::max<std::size_t>(1, options.max_batch);
  return options;
}

}  // namespace

AsyncAmIndex::AsyncAmIndex(AmIndex& index, AsyncOptions options)
    : index_(index),
      options_(sanitized(options)),
      queue_(options_.queue_depth) {
  // Own the index for the session: synchronous mutation (or
  // ordinal-consuming synchronous serving) now throws the typed
  // MutationWhileServed instead of racing the dispatcher. The claim is
  // exclusive — wrapping an already-owned index throws here — and it
  // comes before the serial snapshot, so no synchronous search can
  // slip in between and consume an ordinal this session would re-serve;
  // the session then continues the noise-stream sequence where the
  // index left off.
  index_.claim_async_owner();
  serial_ = index_.query_serial();
  try {
    dispatcher_ = std::thread([this] { dispatch_loop(); });  // ferex-lint: allow(raw-thread)
  } catch (...) {
    // Thread spawn failed: the destructor will not run, so hand the
    // index back here, or it stays locked behind the guard forever.
    index_.release_async_owner();
    throw;
  }
}

AsyncAmIndex::~AsyncAmIndex() { shutdown(); }

bool AsyncAmIndex::writes_pending() const {
  return writes_applied_ < writes_admitted_.load(std::memory_order_relaxed);
}

void AsyncAmIndex::validate_search_submit(const SearchRequest& request) const {
  // See the header: k >= 1 always; everything touching the backend only
  // on a quiescent session (else deferred to execution — even the
  // configured+stored precondition, which a queued first insert
  // establishes). The shared lock orders the backend reads against a
  // write the dispatcher may be applying, and the closing_ check inside
  // it keeps stragglers off an index that shutdown() may already have
  // handed back to synchronous mutators (shutdown's unique-lock
  // barrier waits out validators already past the check).
  if (request.k == 0) {
    throw std::invalid_argument("AmIndex: request.k out of range");
  }
  util::ReaderMutexLock guard(validate_mutex_);
  if (closing_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit after shutdown");
  }
  if (writes_pending()) return;
  index_.validate_request(request);
}

bool AsyncAmIndex::placed_ahead(const SearchRequest& request) const noexcept {
  switch (request.submit.priority) {
    case SubmitOptions::Priority::kUrgent:
      return true;
    case SubmitOptions::Priority::kFifo:
      return false;
    case SubmitOptions::Priority::kClassDefault:
      break;
  }
  return options_.admission.order == AdmissionPolicy::ClassOrder::kSearchFirst;
}

void AsyncAmIndex::note_service(double total_us, std::size_t ops) noexcept {
  if (ops == 0) return;
  const double sample = total_us / static_cast<double>(ops);
  // Only the dispatcher writes the estimate, so a plain load/store
  // suffices. First observation seeds; afterwards a gentle EWMA (alpha
  // 0.25) tracks service-time drift without chasing one slow batch.
  const double prev = est_service_us_.load(std::memory_order_relaxed);
  est_service_us_.store(prev == 0.0 ? sample : prev + 0.25 * (sample - prev),
                        std::memory_order_relaxed);
}

void AsyncAmIndex::check_submit_deadline(const SearchRequest& request,
                                         bool ahead) const {
  const AdmissionPolicy& policy = options_.admission;
  if (request.submit.deadline_us == 0 ||
      policy.shed != AdmissionPolicy::ShedPolicy::kSubmitAndDispatch) {
    return;
  }
  const double per_op = est_service_us_.load(std::memory_order_relaxed);
  if (per_op <= 0.0) return;
  // Ops this request would wait behind: every queued search, plus the
  // queued writes it cannot overtake (all of them in FIFO placement,
  // only the bounded max_writes_ahead budget when placed ahead).
  const std::size_t searches =
      queued_searches_.load(std::memory_order_relaxed);
  std::size_t writes = queued_writes_.load(std::memory_order_relaxed);
  if (ahead) writes = std::min(writes, policy.max_writes_ahead);
  const double estimate = per_op * static_cast<double>(searches + writes);
  if (estimate > static_cast<double>(request.submit.deadline_us)) {
    shed_submit_.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceeded(
        "AsyncAmIndex: deadline_us=" +
        std::to_string(request.submit.deadline_us) +
        " already hopeless (estimated queue wait " +
        std::to_string(static_cast<std::uint64_t>(estimate)) + "us)");
  }
}

std::future<SearchResponse> AsyncAmIndex::submit(SearchRequest request) {
  validate_search_submit(request);

  Pending pending;
  pending.submitted = Clock::now();

  const AdmissionPolicy& policy = options_.admission;
  util::MutexLock lock(submit_mutex_);
  if (shutdown_) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit after shutdown");
  }
  const bool ahead = placed_ahead(request);
  check_submit_deadline(request, ahead);
  const bool pinned = request.ordinal.has_value();
  pending.ordinal = pinned ? *request.ordinal : serial_;
  pending.request = std::move(request);
  pending.promise.emplace();
  std::future<SearchResponse> future = pending.promise->get_future();
  // Pushers all hold submit_mutex_, so a failed push can only mean the
  // queue is genuinely at depth (pops only make room) — admission
  // control, with the serial untouched. A placed search lands ahead of
  // queued writes and so runs against the pre-write state; FIFO
  // placement keeps the bit-identical submission-order guarantee.
  const bool pushed =
      ahead ? queue_.try_push_before(
                  std::move(pending),
                  [](const Pending& queued) {
                    return queued.kind != Pending::Kind::kSearch;
                  },
                  policy.max_writes_ahead)
            : queue_.try_push(std::move(pending));
  if (!pushed) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    throw Overloaded("AsyncAmIndex: request queue at depth " +
                     std::to_string(options_.queue_depth));
  }
  if (!pinned) ++serial_;
  queued_searches_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<WriteReceipt> AsyncAmIndex::admit_write(Pending pending) {
  // Admission is decided before the WAL append: every pusher holds
  // submit_mutex_ and pops only make room, so a queue with a free slot
  // here cannot refuse the push below. The journal therefore never
  // records a rejected op, and a crash mid-append leaves a torn —
  // truncated, never-applied — record, not a phantom.
  if (queue_.size() >= queue_.capacity()) {
    writes_rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    throw Overloaded("AsyncAmIndex: request queue at depth " +
                     std::to_string(options_.queue_depth));
  }
  // Journaled under submit_mutex_ in admission order. Writes are always
  // appended to the queue and the dispatcher serves it in order, so the
  // log order is the apply order and replay reproduces the exact
  // serialized sequence the dispatcher applied.
  if (options_.wal != nullptr) {
    switch (pending.kind) {
      case Pending::Kind::kRemove:
        options_.wal->append_remove(pending.row);
        break;
      case Pending::Kind::kUpdate:
        options_.wal->append_update(pending.row, pending.vector);
        break;
      default:
        options_.wal->append_insert(pending.vector);
        break;
    }
  }
  pending.write_promise.emplace();
  std::future<WriteReceipt> future = pending.write_promise->get_future();
  queue_.try_push(std::move(pending));
  writes_admitted_.fetch_add(1, std::memory_order_relaxed);
  queued_writes_.fetch_add(1, std::memory_order_relaxed);
  writes_submitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<WriteReceipt> AsyncAmIndex::submit_remove(std::size_t global_row) {
  Pending pending;
  pending.kind = Pending::Kind::kRemove;
  pending.row = global_row;
  pending.submitted = Clock::now();

  util::MutexLock lock(submit_mutex_);
  if (shutdown_) {
    writes_rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit_remove after shutdown");
  }
  {
    util::ReaderMutexLock guard(validate_mutex_);
    // The slot range is state (queued inserts grow it): authoritative
    // only on a quiescent index, else checked at execution.
    if (!writes_pending() && global_row >= index_.stored_count()) {
      throw std::out_of_range("AsyncAmIndex::submit_remove: row");
    }
  }
  return admit_write(std::move(pending));
}

std::future<WriteReceipt> AsyncAmIndex::submit_update(std::size_t global_row,
                                                      std::vector<int> vector) {
  Pending pending;
  pending.kind = Pending::Kind::kUpdate;
  pending.row = global_row;
  pending.vector = std::move(vector);
  pending.submitted = Clock::now();

  util::MutexLock lock(submit_mutex_);
  if (shutdown_) {
    writes_rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit_update after shutdown");
  }
  {
    util::ReaderMutexLock guard(validate_mutex_);
    if (!writes_pending() && global_row >= index_.stored_count()) {
      throw std::out_of_range("AsyncAmIndex::submit_update: row");
    }
    // Dimensionality is fixed while the wrapper owns the index
    // (store/configure are guarded), so the length check is structural.
    if (index_.stored_count() > 0 &&
        pending.vector.size() != index_.dims()) {
      throw std::invalid_argument(
          "AsyncAmIndex::submit_update: vector.size() != dims");
    }
  }
  return admit_write(std::move(pending));
}

std::future<WriteReceipt> AsyncAmIndex::submit_insert(std::vector<int> vector) {
  Pending pending;
  pending.kind = Pending::Kind::kInsert;
  pending.vector = std::move(vector);
  pending.submitted = Clock::now();

  util::MutexLock lock(submit_mutex_);
  if (shutdown_) {
    writes_rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit_insert after shutdown");
  }
  {
    util::ReaderMutexLock guard(validate_mutex_);
    if (pending.vector.empty() ||
        (index_.stored_count() > 0 &&
         pending.vector.size() != index_.dims())) {
      throw std::invalid_argument(
          "AsyncAmIndex::submit_insert: vector.size() != dims");
    }
  }
  return admit_write(std::move(pending));
}

std::vector<std::future<SearchResponse>> AsyncAmIndex::submit_batch(
    std::span<const SearchRequest> requests) {
  // Fail the whole batch fast once shutdown has begun (counted per
  // request, like the all-or-nothing admission below), then validate
  // all-or-nothing before anything is consumed (same submit-time rules
  // as submit, outside the submit lock).
  if (closing_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(requests.size(), std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit_batch after shutdown");
  }
  for (const auto& request : requests) validate_search_submit(request);

  std::vector<std::future<SearchResponse>> futures;
  futures.reserve(requests.size());
  if (requests.empty()) return futures;

  const auto now = Clock::now();
  util::MutexLock lock(submit_mutex_);
  if (shutdown_) {
    rejected_shutdown_.fetch_add(requests.size(), std::memory_order_relaxed);
    throw ShutDown("AsyncAmIndex: submit_batch after shutdown");
  }
  // All-or-nothing admission: a batch that does not fit consumes nothing
  // (mirrors the synchronous search_batch, where a rejected batch leaves
  // the serial where it was).
  if (queue_.size() + requests.size() > queue_.capacity()) {
    rejected_overload_.fetch_add(requests.size(), std::memory_order_relaxed);
    throw Overloaded("AsyncAmIndex: batch of " +
                     std::to_string(requests.size()) +
                     " exceeds queue depth " +
                     std::to_string(options_.queue_depth));
  }
  // Batches are always FIFO-placed and never submit-shed on deadline
  // (an estimate that rejects one element would have to reject the
  // whole batch); per-request deadlines still shed at dispatch.
  std::uint64_t next = serial_;
  for (const auto& request : requests) {
    Pending pending;
    pending.submitted = now;
    pending.request = request;
    pending.ordinal = request.ordinal ? *request.ordinal : next++;
    pending.promise.emplace();
    futures.push_back(pending.promise->get_future());
    // Cannot fail: capacity was checked under the same mutex all
    // pushers hold, and close() also takes it.
    queue_.try_push(std::move(pending));
  }
  serial_ = next;
  queued_searches_.fetch_add(requests.size(), std::memory_order_relaxed);
  submitted_.fetch_add(requests.size(), std::memory_order_relaxed);
  return futures;
}

void AsyncAmIndex::shutdown() {
  std::uint64_t final_serial = 0;
  {
    util::MutexLock lock(submit_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    closing_.store(true, std::memory_order_release);
    final_serial = serial_;
  }
  // Drain mode: pushes now fail, but the dispatcher keeps popping until
  // the queue is empty — every accepted future completes.
  queue_.close();
  dispatcher_.join();
  // Barrier: straggler submit validators hold validate_mutex_ shared
  // while reading the index; wait them out (new ones bail on closing_)
  // before the index can go back to synchronous mutators.
  { util::WriterMutexLock barrier(validate_mutex_); }
  // Hand the advanced serial back while still owning the index (the
  // reverse order would let a concurrent re-wrap seed from the stale
  // serial — and make the guarded setter throw out of a destructor),
  // then release it back to synchronous use. The dispatcher is
  // drained and joined, so this wrapper is the sole serialized actor —
  // assert the mutation capability for the unguarded setter.
  index_.assert_async_serialized();
  index_.set_query_serial_unguarded(final_serial);
  index_.release_async_owner();
}

bool AsyncAmIndex::shut_down() const {
  util::MutexLock lock(submit_mutex_);
  return shutdown_;
}

std::uint64_t AsyncAmIndex::query_serial() const {
  util::MutexLock lock(submit_mutex_);
  return serial_;
}

ServeStats AsyncAmIndex::stats() const {
  ServeStats stats;
  stats.search.submitted = submitted_.load(std::memory_order_relaxed);
  stats.search.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  stats.search.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  stats.shed_submit = shed_submit_.load(std::memory_order_relaxed);
  stats.shed_dispatch = shed_dispatch_.load(std::memory_order_relaxed);
  stats.search.shed_deadline = stats.shed_submit + stats.shed_dispatch;
  stats.search.served = served_.load(std::memory_order_relaxed);
  stats.search.queue_wait_us = queue_wait_us_.summarize();
  stats.search.end_to_end_us = end_to_end_us_.summarize();
  stats.write.submitted = writes_submitted_.load(std::memory_order_relaxed);
  stats.write.rejected_overload =
      writes_rejected_overload_.load(std::memory_order_relaxed);
  stats.write.rejected_shutdown =
      writes_rejected_shutdown_.load(std::memory_order_relaxed);
  stats.write.served = writes_served_.load(std::memory_order_relaxed);
  stats.write.queue_wait_us = write_queue_wait_us_.summarize();
  stats.write.end_to_end_us = write_end_to_end_us_.summarize();
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  return stats;
}

void AsyncAmIndex::dispatch_loop() {
  // Occupancy accounting: a popped op leaves the queue for good, so
  // decrement exactly once at each pop site — the counters feed the
  // submit wait estimate, where "in the dispatcher's hands" no longer
  // queues.
  const auto note_popped = [this](const Pending& popped) {
    if (popped.kind == Pending::Kind::kSearch) {
      queued_searches_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      queued_writes_.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  std::vector<Pending> batch;
  for (;;) {
    Pending first;
    if (!queue_.pop(first)) break;  // closed and drained
    note_popped(first);
    if (first.kind != Pending::Kind::kSearch) {
      serve_write(first);
      continue;
    }
    batch.clear();
    batch.push_back(std::move(first));
    // Coalesce: take whatever is already queued, then — if the batch is
    // still short and a linger is configured — wait for stragglers. The
    // deadline is anchored at the first pop so a trickle of arrivals
    // cannot stall dispatch indefinitely. The batch stops at the first
    // write, which applies right after it: the queue executes in order.
    std::optional<Pending> write;
    const auto deadline =
        Clock::now() + std::chrono::microseconds(options_.max_wait_us);
    while (batch.size() < options_.max_batch) {
      Pending next;
      if (!queue_.try_pop(next)) {
        if (options_.max_wait_us == 0 || !queue_.pop_until(next, deadline)) {
          break;
        }
      }
      note_popped(next);
      if (next.kind != Pending::Kind::kSearch) {
        write = std::move(next);
        break;
      }
      batch.push_back(std::move(next));
    }
    serve_batch(batch);
    if (write) serve_write(*write);
  }
}

void AsyncAmIndex::serve_write(Pending& pending) {
  const auto apply_start = Clock::now();
  write_queue_wait_us_.record(us_between(pending.submitted, apply_start));
  WriteReceipt receipt;
  std::exception_ptr error;
  try {
    // Exclusive against submit-time validators, which read the state
    // this write changes; searches run on this thread and need no
    // exclusion. The count advances in the same hold, so a validator
    // sees count and state change together — even when the write
    // fails, since a throwing write is a no-op on the index, exactly as
    // in the synchronous sequence. The do_* cores bypass the
    // synchronous-mutation guard — this queue provides the
    // serialization that guard exists to enforce, which is exactly
    // what the capability assertion below tells the static analysis.
    util::WriterMutexLock guard(validate_mutex_);
    ++writes_applied_;
    index_.assert_async_serialized();
    switch (pending.kind) {
      case Pending::Kind::kRemove:
        receipt = index_.do_remove(pending.row);
        break;
      case Pending::Kind::kUpdate:
        receipt = index_.do_update(pending.row, pending.vector);
        break;
      default:
        receipt = index_.do_insert(pending.vector);
        break;
    }
  } catch (...) {
    error = std::current_exception();
  }
  note_service(us_between(apply_start, Clock::now()), 1);
  write_end_to_end_us_.record(us_between(pending.submitted, Clock::now()));
  writes_served_.fetch_add(1, std::memory_order_relaxed);
  if (error) {
    pending.write_promise->set_exception(std::move(error));
  } else {
    pending.write_promise->set_value(receipt);
  }
}

void AsyncAmIndex::serve_batch(std::vector<Pending>& batch) {
  const auto dispatch_start = Clock::now();

  // Dispatch-time deadline shed: a request whose measured queue wait
  // already exceeds its budget is failed with DeadlineExceeded instead
  // of burning backend time on an answer nobody is waiting for. Shed
  // requests are counted, not timed (the reservoirs summarize served
  // traffic).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t deadline = batch[i].request.submit.deadline_us;
    if (deadline > 0 &&
        us_between(batch[i].submitted, dispatch_start) >
            static_cast<double>(deadline)) {
      shed_dispatch_.fetch_add(1, std::memory_order_relaxed);
      batch[i].promise->set_exception(std::make_exception_ptr(
          DeadlineExceeded("AsyncAmIndex: deadline_us=" +
                           std::to_string(deadline) + " expired in queue")));
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  batch.resize(kept);
  if (batch.empty()) return;

  for (const auto& pending : batch) {
    queue_wait_us_.record(us_between(pending.submitted, dispatch_start));
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (batch.size() > max_batch_.load(std::memory_order_relaxed)) {
    max_batch_.store(batch.size(), std::memory_order_relaxed);
  }

  if (batch.size() == 1) {
    auto& pending = batch.front();
    try {
      fulfill(pending, index_.serve_at(pending.request, pending.ordinal));
    } catch (...) {
      fail(pending, std::current_exception());
    }
    note_service(us_between(dispatch_start, Clock::now()), 1);
    return;
  }

  std::vector<SearchRequest> requests;
  std::vector<std::uint64_t> ordinals;
  requests.reserve(batch.size());
  ordinals.reserve(batch.size());
  for (auto& pending : batch) {
    requests.push_back(std::move(pending.request));
    ordinals.push_back(pending.ordinal);
  }
  try {
    std::vector<SearchResponse> responses =
        index_.serve_batch_at(requests, ordinals);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      fulfill(batch[i], std::move(responses[i]));
    }
  } catch (...) {
    // A mid-batch backend failure must not poison batchmates: retry each
    // request alone (ordinal-addressed, so the retry is bit-identical to
    // a first service) and fail only the futures that themselves throw.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      try {
        fulfill(batch[i],
                index_.serve_at(SearchRequest{std::move(requests[i].query),
                                              requests[i].k, std::nullopt},
                                ordinals[i]));
      } catch (...) {
        fail(batch[i], std::current_exception());
      }
    }
  }
  note_service(us_between(dispatch_start, Clock::now()), batch.size());
}

void AsyncAmIndex::fulfill(Pending& pending, SearchResponse response) {
  // Record before set_value: a future observer that wakes on the result
  // must already see this request in the stats (future.get synchronizes
  // with the promise, ordering these relaxed writes for the observer).
  end_to_end_us_.record(us_between(pending.submitted, Clock::now()));
  served_.fetch_add(1, std::memory_order_relaxed);
  pending.promise->set_value(std::move(response));
}

void AsyncAmIndex::fail(Pending& pending, std::exception_ptr error) {
  end_to_end_us_.record(us_between(pending.submitted, Clock::now()));
  served_.fetch_add(1, std::memory_order_relaxed);
  pending.promise->set_exception(std::move(error));
}

}  // namespace ferex::serve
