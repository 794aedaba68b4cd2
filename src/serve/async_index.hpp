// AsyncAmIndex — the asynchronous front door over any AmIndex.
//
// Synchronous serving couples batch shape to client call patterns: a
// thousand independent callers each issuing search() never form the
// hardware-shaped batches the banked kernels are fast at, and a burst
// has no backpressure story beyond blocking. AsyncAmIndex interposes
// the classic serving triad:
//
//   * a bounded MPMC request queue with completion futures —
//     submit(request) returns std::future<SearchResponse> immediately;
//   * admission control — past `queue_depth` pending requests,
//     submissions fail fast with the typed Overloaded error (callers
//     shed or retry; latency never grows without bound). The v2
//     AdmissionPolicy extends this with deadline-based shedding (a
//     request whose `deadline_us` budget is already hopeless by
//     queue-wait estimate throws DeadlineExceeded at submit; one that
//     expires while queued is shed at dispatch, the future surfacing the
//     same type), and class priorities (kSearchFirst placement bounds
//     how many queued writes a search can wait behind). Every rejection
//     derives from RejectedRequest;
//   * batch coalescing — one dispatcher thread drains the queue in order
//     and fuses adjacent searches into one batched backend call, up to
//     `max_batch` requests, lingering up to `max_wait_us` for stragglers
//     when the queue runs dry mid-batch.
//
// Determinism: every accepted request is assigned its noise-stream
// ordinal *at submission time* (the index's next serial, or the
// request's own pinned ordinal), and the dispatcher serves through the
// const ordinal-addressed cores. Responses are therefore bit-identical
// to a synchronous AmIndex serving the same requests in submission
// order — coalescing and thread interleaving never change a result,
// only when it arrives.
//
// Writes flow through the same queue: submit_insert / submit_remove /
// submit_update return std::future<WriteReceipt>, and the dispatcher
// executes the queue strictly in order — a coalesced batch stops at the
// first queued write, which applies next. Writes are always appended,
// so every operation admitted before a write is ahead of it in the
// queue and every FIFO search admitted after it is behind: the response
// stream is bit-identical to a synchronous AmIndex applying the same
// operations in submission order. A search placed ahead of queued
// writes (kSearchFirst / kUrgent) runs against the pre-write state, as
// if it had been submitted before them. A failed write (e.g. double
// remove) surfaces through its future and mutates nothing — exactly the
// synchronous sequence's throwing call.
//
// Lifecycle: shutdown() (and the destructor) closes the queue, lets the
// dispatcher drain every accepted request (all futures complete — by
// value or exception, none broken), and joins it. Submissions after
// shutdown fail fast with the typed ShutDown error. Backend exceptions
// surface through the affected futures, never std::terminate.
//
// The wrapped index must outlive the AsyncAmIndex. While the front door
// is open the index is marked async-owned: synchronous mutation or
// ordinal-consuming synchronous serving throws the typed
// MutationWhileServed instead of silently racing the dispatcher
// (shutdown() returns the index to synchronous use).
//
// Fan-out: a coalesced batch runs through AmIndex's batch dispatch,
// which fans it across requests (a lone request fans its own rows,
// banks or shards). Every session shares the one util::parallel pool; a
// dispatcher that finds it owned by another session runs its fan-out
// inline, and the nested loops under it stay inline too.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "serve/am_index.hpp"
#include "util/bounded_queue.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::serve {

class Wal;

/// Admission-control policy for the async front doors — the v2 API's
/// session-level half (SubmitOptions is the per-request half). A
/// default-constructed policy reproduces v1 behavior exactly: no
/// deadlines enforced, strict FIFO placement.
struct AdmissionPolicy {
  /// Where searches are placed relative to queued writes.
  enum class ClassOrder : std::uint8_t {
    /// Strict submission order — v1. Requests carrying
    /// SubmitOptions::Priority::kUrgent still jump queued writes.
    kFifo = 0,
    /// Searches are placed ahead of queued writes (beyond the
    /// max_writes_ahead budget), so a bulk-write backlog never adds
    /// more than that bounded budget to search queue wait. Searches
    /// placed ahead of a write run against the pre-write state — the
    /// trade the caller opts into; FIFO traffic keeps the bit-identical
    /// submission-order guarantee.
    kSearchFirst,
  };
  ClassOrder order = ClassOrder::kFifo;

  /// Ahead-of-write placement still yields to this many queued writes
  /// (counted from the queue's front): the write class's bounded
  /// anti-starvation budget. 0 = a placed search overtakes every
  /// queued write.
  std::size_t max_writes_ahead = 0;

  /// When deadline shedding is decided.
  enum class ShedPolicy : std::uint8_t {
    /// Estimate queue wait at submit (shedding hopeless requests with
    /// DeadlineExceeded before they consume a slot) AND recheck the
    /// measured wait at dispatch. The estimate is the ops ahead times
    /// a live EWMA of observed per-op service time; a cold session has
    /// no estimate yet and admits until the first op is served.
    kSubmitAndDispatch = 0,
    /// Only shed requests whose measured queue wait exceeded the
    /// budget at dispatch; submit never second-guesses.
    kDispatchOnly,
  };
  ShedPolicy shed = ShedPolicy::kSubmitAndDispatch;
};

struct AsyncOptions {
  /// Admission limit: max requests queued ahead of the dispatcher.
  std::size_t queue_depth = 1024;
  /// Coalescing cap: max searches fused into one batched backend call.
  std::size_t max_batch = 32;
  /// Coalescing linger: once the dispatcher holds at least one search,
  /// it waits up to this long for more before serving a short batch. 0
  /// serves whatever is immediately available.
  std::uint32_t max_wait_us = 100;
  /// Optional write-ahead log (see DurableIndex::wal()). Each accepted
  /// write is journaled at admission, under the submit mutex, after
  /// admission is decided — writes are appended to the queue in that
  /// same order and served in queue order, so log order equals apply
  /// order, and the log never records a rejected op. Must outlive the
  /// AsyncAmIndex; appends must not race synchronous use of the same
  /// Wal (the MutationWhileServed guard already keeps the DurableIndex
  /// front door closed during the session).
  Wal* wal = nullptr;
  /// v2: deadline shedding + class priorities (defaults = v1 exactly).
  AdmissionPolicy admission;
};

/// Counters + latency percentiles for a serving session (all since
/// construction; see LatencyReservoir for snapshot semantics), broken
/// out per request class — searches and writes queue, shed, and
/// complete on different terms (writes never coalesce, and folding
/// their waits into the search reservoirs would skew the percentiles
/// the serve bench gates).
struct ServeStats {
  /// One request class's view of the session. Reservoirs time served
  /// traffic only; rejected and shed requests are counted, not timed.
  struct ClassStats {
    std::uint64_t submitted = 0;          ///< accepted requests
    std::uint64_t rejected_overload = 0;  ///< failed admission (Overloaded)
    std::uint64_t rejected_shutdown = 0;  ///< submitted after shutdown
    std::uint64_t shed_deadline = 0;      ///< DeadlineExceeded sheds
    std::uint64_t served = 0;             ///< futures completed by service
    core::LatencyReservoir::Summary queue_wait_us;  ///< submit -> dispatch
    core::LatencyReservoir::Summary end_to_end_us;  ///< submit -> complete
  };
  ClassStats search;
  ClassStats write;
  std::uint64_t shed_submit = 0;    ///< deadline sheds decided at submit
  std::uint64_t shed_dispatch = 0;  ///< deadline sheds decided at dispatch
  std::uint64_t batches = 0;        ///< search dispatch calls issued
  std::uint64_t max_batch = 0;      ///< largest coalesced batch
};

class AsyncAmIndex {
 public:
  /// Spawns the dispatcher thread immediately (queue_depth and max_batch
  /// are clamped to at least one). The index must already be configured
  /// and loaded before requests arrive.
  explicit AsyncAmIndex(AmIndex& index, AsyncOptions options = {});

  /// shutdown(): drains accepted requests, completes every future.
  ~AsyncAmIndex();

  AsyncAmIndex(const AsyncAmIndex&) = delete;
  AsyncAmIndex& operator=(const AsyncAmIndex&) = delete;

  /// Enqueues one request and returns its completion future. Validates
  /// first (nothing consumed on a throw): on a quiescent session the
  /// full request validation runs at submit, same exceptions as
  /// AmIndex::search; while writes are in flight only k >= 1 is
  /// decidable — the state this request will see (live rows, even
  /// whether a queued first insert has established the index) is a
  /// function of the queued writes, so validation reruns at execution
  /// and surfaces through the future, exactly where the synchronous
  /// sequence would throw. Then assigns the noise-stream ordinal (the
  /// wrapper's next serial, or request.ordinal when pinned) and
  /// admits — throwing Overloaded on a full queue, ShutDown after
  /// shutdown(), with the serial unmoved in both cases.
  std::future<SearchResponse> submit(SearchRequest request);

  /// All-or-nothing batch submission: either every request is accepted
  /// (ordinals assigned contiguously in order, one future each) or the
  /// whole batch is rejected and nothing is consumed. Already-batched
  /// traffic skips the coalescing wait: the dispatcher still splits or
  /// fuses it to max_batch.
  std::vector<std::future<SearchResponse>> submit_batch(
      std::span<const SearchRequest> requests);

  /// Enqueues a row deletion. The physical slot range is checked at
  /// submit on a quiescent index (std::out_of_range); liveness — and
  /// the range itself once writes are in flight — is a property of when
  /// the op executes, so those failures surface through the future,
  /// exactly as the synchronous sequence would throw. Admission matches
  /// submit (Overloaded / ShutDown, nothing consumed on rejection). The
  /// op serializes against every search by submission order (see the
  /// file comment).
  std::future<WriteReceipt> submit_remove(std::size_t global_row);

  /// Enqueues an in-place overwrite. Vector length is validated at
  /// submit (dimensionality cannot change while the wrapper owns the
  /// index); the row range follows submit_remove's rules; alphabet
  /// errors surface through the future.
  std::future<WriteReceipt> submit_update(std::size_t global_row,
                                          std::vector<int> vector);

  /// Enqueues a streaming insert (freed slots reused before growth, as
  /// AmIndex::insert). Vector length is validated at submit; alphabet
  /// errors surface through the future. The receipt says where the row
  /// landed.
  std::future<WriteReceipt> submit_insert(std::vector<int> vector);

  /// Closes the queue, drains every accepted request (their futures
  /// complete), joins the dispatcher. Idempotent; afterwards submit
  /// throws ShutDown.
  void shutdown();

  bool shut_down() const;

  /// Ordinal the next unpinned submission will take. Seeded from the
  /// wrapped index's query_serial() at construction and handed back at
  /// shutdown, so synchronous traffic before and after an async session
  /// continues one unbroken noise-stream sequence.
  std::uint64_t query_serial() const;

  ServeStats stats() const;

  const AsyncOptions& options() const noexcept { return options_; }

 private:
  struct Pending {
    enum class Kind { kSearch, kRemove, kUpdate, kInsert };
    Kind kind = Kind::kSearch;
    SearchRequest request;       ///< kSearch
    std::size_t row = 0;         ///< kRemove / kUpdate
    std::vector<int> vector;     ///< kUpdate / kInsert
    std::uint64_t ordinal = 0;   ///< kSearch (noise stream)
    /// Exactly one is engaged per op (a default std::promise allocates
    /// its shared state, so carrying both non-optionally would waste a
    /// heap allocation per request).
    std::optional<std::promise<SearchResponse>> promise;      ///< kSearch
    std::optional<std::promise<WriteReceipt>> write_promise;  ///< writes
    std::chrono::steady_clock::time_point submitted{};
  };

  /// True when admitted writes have not all applied yet. The shared
  /// validate_mutex_ pairs the applied count with the index state the
  /// caller is about to read.
  bool writes_pending() const REQUIRES_SHARED(validate_mutex_);
  /// Submit-time search validation, run before submit_mutex_ so
  /// submitters do not serialize on the O(dims) query scan. On a
  /// quiescent index the snapshot is authoritative (full
  /// validate_request — malformed requests throw here and consume
  /// nothing). With writes in flight every backend check is deferred:
  /// the state this request will see — including whether a queued
  /// first insert has established the index at all — is a function of
  /// the queued writes, so the checks rerun at execution and surface
  /// through the future, exactly as the synchronous sequence would
  /// throw at the request's position in the stream. Only k >= 1 is
  /// always decidable. Throws ShutDown once shutdown has begun (the
  /// index may already be back in synchronous hands).
  void validate_search_submit(const SearchRequest& request) const
      EXCLUDES(submit_mutex_);
  /// Shared admission tail of the write submit paths: capacity check,
  /// journaling, push, counters (submit_mutex_ held, shutdown already
  /// checked).
  std::future<WriteReceipt> admit_write(Pending pending)
      REQUIRES(submit_mutex_);

  /// True when this request is placed ahead of queued writes (per its
  /// SubmitOptions::priority resolved against the session policy).
  bool placed_ahead(const SearchRequest& request) const noexcept;
  /// Submit-time deadline gate: throws DeadlineExceeded (counting the
  /// shed) when the queue-wait estimate alone already exceeds the
  /// request's budget. A cold EWMA admits — the dispatch-time recheck
  /// still guards the budget.
  void check_submit_deadline(const SearchRequest& request, bool ahead) const
      REQUIRES(submit_mutex_);
  /// Feeds the live EWMA with one dispatch's measured per-op service.
  void note_service(double total_us, std::size_t ops) noexcept;

  void dispatch_loop();
  /// Serves one coalesced batch: singles through serve_at, larger
  /// batches through serve_batch_at with a per-request fallback so one
  /// failing request cannot poison its batchmates' futures.
  void serve_batch(std::vector<Pending>& batch);
  /// Applies one write op under the exclusive validate_mutex_, counts
  /// it applied (even on failure — a throwing write is the synchronous
  /// sequence's no-op), completes the future.
  void serve_write(Pending& pending);
  void fulfill(Pending& pending, SearchResponse response);
  void fail(Pending& pending, std::exception_ptr error);

  AmIndex& index_;
  const AsyncOptions options_;
  util::BoundedQueue<Pending> queue_;

  /// Guards serial_ / shutdown_ and makes admission + ordinal assignment
  /// atomic. Lock hierarchy (declared here, enforced acyclic by
  /// ferex_lint's lock-order pass): the write submit paths nest
  /// validate_mutex_ (shared) inside this lock, never the reverse.
  mutable util::Mutex submit_mutex_ ACQUIRED_BEFORE(validate_mutex_);
  std::uint64_t serial_ GUARDED_BY(submit_mutex_) = 0;
  bool shutdown_ GUARDED_BY(submit_mutex_) = false;
  /// Mirrors shutdown_ for lock-free reads in the pre-lock validators;
  /// set under submit_mutex_, synchronized by the validate_mutex_
  /// barrier shutdown() takes before releasing the index.
  std::atomic<bool> closing_{false};
  /// Writes accepted so far. Written only under submit_mutex_; atomic
  /// (GUARDED_BY-exempt) so the pre-lock validators can consult
  /// quiescence without the lock.
  std::atomic<std::uint64_t> writes_admitted_{0};

  /// Guards submit-time validation (which reads backend state) against
  /// write application: validators hold it shared, the dispatcher
  /// exclusively while it applies a write. Searches take no lock — they
  /// run on the dispatcher thread, which applies every write itself.
  mutable util::SharedMutex validate_mutex_;
  /// Writes the dispatcher has applied (failed ones included), advanced
  /// in the same exclusive hold as the apply.
  std::uint64_t writes_applied_ GUARDED_BY(validate_mutex_) = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  /// mutable: also counted from the const submit-time validator.
  mutable std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> writes_submitted_{0};
  std::atomic<std::uint64_t> writes_rejected_overload_{0};
  std::atomic<std::uint64_t> writes_rejected_shutdown_{0};
  std::atomic<std::uint64_t> writes_served_{0};
  /// Deadline sheds by decision point (search class only — writes
  /// carry no deadline). mutable: submit sheds are counted from the
  /// const submit-time gate.
  mutable std::atomic<std::uint64_t> shed_submit_{0};
  std::atomic<std::uint64_t> shed_dispatch_{0};
  /// Queue occupancy per class, for the submit wait estimate.
  /// Incremented under submit_mutex_ at push, decremented by the
  /// dispatcher at pop (GUARDED_BY-exempt atomics by design).
  std::atomic<std::size_t> queued_searches_{0};
  std::atomic<std::size_t> queued_writes_{0};
  /// Live EWMA of per-op service time (us), feeding the submit-time
  /// queue-wait estimate. Written by the dispatcher only. 0 = cold.
  std::atomic<double> est_service_us_{0.0};
  core::LatencyReservoir queue_wait_us_;
  core::LatencyReservoir end_to_end_us_;
  core::LatencyReservoir write_queue_wait_us_;
  core::LatencyReservoir write_end_to_end_us_;

  /// Declared last, after everything dispatch_loop() touches. Waived
  /// from the repo linter's raw-thread rule: the dispatcher thread is
  /// this subsystem's purpose, and its lifecycle is owned end to end by
  /// the constructor/shutdown() pair (joined, never detached).
  std::thread dispatcher_;  // ferex-lint: allow(raw-thread)
};

}  // namespace ferex::serve
