// The AmIndex serving API — one front door for every FeReX backend.
//
// The paper's headline is a single engine serving many metrics and
// workloads on the same hardware, but the lower layers expose two front
// doors: core::FerexEngine (one macro) and arch::BankedAm (multi-macro).
// Both report core::Hit and core::WriteReceipt, the types this layer
// serves too. AmIndex unifies them behind a request/response surface:
//
//   serve::BankedIndex index(options);          // or EngineIndex
//   index.configure(csp::DistanceMetric::kHamming, 2);
//   index.store(database);
//   auto r = index.search({q, /*k=*/3});
//   for (const auto& hit : r.hits)              // nearest first
//     use(hit.global_row, hit.bank, hit.sensed_current_a,
//         hit.margin_a, hit.nominal_distance);
//   index.insert(vec);                          // streaming write path
//
// Guarantees:
//   * Hits are the backend's one search core's own core::Hit values at
//     the request's ordinal, passed through unconverted:
//     FerexEngine::search_hits_at for EngineIndex; BankedAm::search_at
//     (k = 1) or search_k_hits (k > 1) for BankedIndex — at both
//     fidelities, single-shot and batched. The backends keep no ordinal
//     counter of their own.
//   * Every request consumes exactly one ordinal from the index's query
//     serial — the per-query comparator-noise stream id — unless the
//     request pins one explicitly or the const search_at entry point is
//     used, so responses never depend on thread interleaving.
//   * insert() appends to the live array(s) (program_row on a grown
//     bank, new banks on demand — reusing slots freed by remove()
//     first) and charges circuit::WriteCost; after N inserts, searches
//     are bit-identical to a fresh store() of the concatenated
//     database.
//   * remove() / update() complete the mutable write path: a removed
//     row is erased and masked in the post-decoder (it can never win an
//     LTA round, and live rows' comparator-noise draws are exactly
//     those of an index holding only the live rows); update()
//     reprograms a slot in place, charging erase + program-and-verify.
//   * k is validated against live_count(); an index with nothing live
//     to search rejects requests with the typed EmptyIndex error.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ferex.hpp"
#include "core/hit.hpp"
#include "csp/distance_matrix.hpp"
#include "serve/reject.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::serve {

class AsyncAmIndex;
class AsyncShardedIndex;

/// Phantom capability: the right to mutate an AmIndex (or drive its
/// ordinal stream) without racing an asynchronous owner. Nothing is
/// ever locked — the capability is *asserted*, either by the
/// synchronous guard (check_mutable, which throws MutationWhileServed
/// when an AsyncAmIndex owns the index) or by the owning AsyncAmIndex
/// itself (whose queue serializes writes against searches). Under
/// clang's `-Wthread-safety` this makes the template-method protocol a
/// compile-time rule: every do_* core REQUIRES the capability, so a new
/// public mutator that forgets its guard fails the static-analysis CI
/// leg instead of silently racing the dispatcher.
class CAPABILITY("role") MutationSerialization {};

/// Per-request serving policy — the v2 request API. Default-constructed
/// options are the v1 behavior bit for bit: no deadline, FIFO class
/// placement. Only the async front doors consult these; the synchronous
/// path (which never queues) ignores them.
struct SubmitOptions {
  /// Latency budget in microseconds, counted from submission. 0 = no
  /// deadline. Under an async front door a request that has already
  /// missed its budget — by queue-wait estimate at submit, or by
  /// measured queue wait at dispatch — is shed with the typed
  /// DeadlineExceeded (thrown from submit, or surfaced through the
  /// future) instead of burning backend time on a dead answer.
  std::uint64_t deadline_us = 0;

  /// Where this request may be placed relative to queued writes.
  enum class Priority : std::uint8_t {
    /// Follow the session's AdmissionPolicy::order (the default).
    kClassDefault = 0,
    /// Strict submission order regardless of policy — v1 behavior.
    kFifo,
    /// Place ahead of queued writes (beyond the policy's bounded
    /// max_writes_ahead budget), even under a kFifo policy.
    kUrgent,
  };
  Priority priority = Priority::kClassDefault;
};

/// One nearest-neighbor request.
struct SearchRequest {
  std::vector<int> query;
  std::size_t k = 1;  ///< how many hits to return (1 <= k <= stored rows)
  /// Pins the comparator-noise stream for this request instead of
  /// consuming the index's next ordinal. Replay a recorded request with
  /// its ordinal and the response is bit-identical.
  std::optional<std::uint64_t> ordinal;
  /// v2: deadline + priority. Defaults reproduce v1 exactly.
  SubmitOptions submit;

  // Explicit constructors (not an aggregate): v1 call sites brace-init
  // a prefix of the fields, which would warn under
  // -Wmissing-field-initializers on every build if the v2 field's
  // default had to be "missing" rather than defaulted here.
  SearchRequest() = default;
  SearchRequest(std::vector<int> query_in, std::size_t k_in = 1,
                std::optional<std::uint64_t> ordinal_in = std::nullopt,
                SubmitOptions submit_in = {})
      : query(std::move(query_in)),
        k(k_in),
        ordinal(ordinal_in),
        submit(submit_in) {}
};

/// One scored row of a response: `bank` is 0 on a single macro, the
/// bank on a banked array and the shard on a fleet.
using Hit = core::Hit;

/// Hits nearest first; never empty (k >= 1 is validated up front).
struct SearchResponse {
  std::vector<Hit> hits;
  const Hit& best() const noexcept { return hits.front(); }
};

/// Receipt for one write-path operation (insert / remove / update).
using WriteReceipt = core::WriteReceipt;

/// A backend's whole state, backend-neutral: what snapshots persist and
/// recovery installs, and where the fleet reads a shard's encoding and
/// liveness. One engine state per macro, in row order; bank_rows 0 is a
/// single macro.
struct BackendState {
  bool configured = false;
  csp::DistanceMetric metric = csp::DistanceMetric::kHamming;
  int bits = 0;
  bool composite = false;
  core::SearchFidelity fidelity = core::SearchFidelity::kCircuit;
  std::size_t bank_rows = 0;
  std::vector<core::FerexEngine::EngineState> banks;
};

/// Polymorphic serving interface over interchangeable FeReX backends.
///
/// The non-virtual entry points own request validation (before any
/// ordinal is consumed), ordinal accounting, and batch scheduling;
/// backends supply the const search core and the write path. Ordinals
/// exist only here: the index's query serial numbers unpinned requests
/// 0, 1, 2, ... from construction, and the backend core serves each at
/// the ordinal it is handed.
class AmIndex {
 public:
  virtual ~AmIndex() = default;

  /// Every mutating entry point below is a thin guard over a protected
  /// do_* virtual: while an AsyncAmIndex owns this index the guard
  /// throws MutationWhileServed instead of silently racing the
  /// dispatcher thread (the async front door routes writes through its
  /// own queue, where they serialize against queued searches).

  /// Configures (or re-configures) the distance function on the backend;
  /// stored and inserted rows are re-encoded.
  void configure(csp::DistanceMetric metric, int bits);

  /// Stores a database, replacing any previous contents (all rows live).
  void store(const std::vector<std::vector<int>>& database);

  /// Streaming insert (see the file comment for the guarantees). Reuses
  /// the lowest slot freed by remove() before growing.
  WriteReceipt insert(std::span<const int> vector);

  /// Deletes one row by global index: the slot is erased, masked out of
  /// every future decision (without perturbing live rows' noise draws),
  /// and queued for reuse. The receipt carries the erase cost. Throws
  /// std::out_of_range on a bad index, std::logic_error when the row is
  /// already removed.
  WriteReceipt remove(std::size_t global_row);

  /// Overwrites one row in place by global index: erase + program-and-
  /// verify on a live slot, program-only on a removed slot (which comes
  /// back live). Validates the vector before mutating.
  WriteReceipt update(std::size_t global_row, std::span<const int> vector);

  /// The backend-state interface, through which durability and the fleet
  /// use a backend without knowing which one it is. A backend without an
  /// operation (the fleet, test fakes) throws std::invalid_argument from
  /// it and changes nothing.
  ///
  /// Composite (digit-decomposed) encodings: a single macro's only.
  void configure_composite(csp::DistanceMetric metric, int bits);
  /// Configures `state`'s encoding, then installs its banks from their
  /// recorded fabrication, so searches and later inserts continue bit for
  /// bit. The caller matches the state to this index first.
  void restore_state(BackendState state);
  /// Tombstone compaction, bit-identical to configure() + store() of the
  /// survivors on a fresh index. Returns the slots reclaimed.
  std::size_t compact();
  virtual BackendState backend_state() const;

  /// Serves one request, consuming one ordinal (unless request.ordinal
  /// pins the noise stream). Throws std::invalid_argument /
  /// std::out_of_range on malformed requests before any ordinal moves.
  SearchResponse search(const SearchRequest& request);

  /// Serves a batch; element i's response is bit-identical to serving
  /// request i alone in order (per-request noise is ordinal-addressed),
  /// but requests fan across the persistent worker pool (a request's own
  /// row, bank or shard fan-out then runs inline).
  /// Consumes one ordinal per request without a pinned one.
  std::vector<SearchResponse> search_batch(
      std::span<const SearchRequest> requests);

  /// Const ordinal-addressed core (the backends' pattern): serves
  /// the request at an explicit ordinal, consuming nothing — the entry
  /// point for callers scheduling their own concurrency and for driving
  /// the index from const contexts. Any request.ordinal is ignored in
  /// favor of the argument. Guarded while an AsyncAmIndex owns the
  /// index: its queued writes mutate the backend, so even const reads
  /// outside the wrapper's serialization would race them — route the
  /// read through AsyncAmIndex::submit with a pinned ordinal instead.
  SearchResponse search_at(const SearchRequest& request,
                           std::uint64_t ordinal) const;

  /// Full request validation (k range + backend query checks), the same
  /// pass every serving entry point runs before any ordinal is consumed.
  /// Public so queueing layers can reject malformed requests at admission
  /// time, before a promise or an ordinal exists for them. Throws the
  /// typed EmptyIndex when nothing is live to search (no k could ever be
  /// valid), std::invalid_argument when 1 <= k <= live_count() fails.
  void validate_request(const SearchRequest& request) const;

  /// Ordinal the next unpinned search() will consume.
  std::uint64_t query_serial() const noexcept { return query_serial_; }

  /// Overwrites the query serial. For serving layers (AsyncAmIndex)
  /// that take over ordinal accounting while open: they seed from
  /// query_serial() at construction and hand the advanced serial back
  /// at shutdown, so synchronous traffic before and after an async
  /// session continues the same noise-stream sequence with no ordinal
  /// served twice. Guarded like the mutating entry points.
  void set_query_serial(std::uint64_t serial) {
    check_mutable("set_query_serial");
    query_serial_ = serial;
  }

  /// Physical slots (live + removed); removed slots are reused by
  /// insert() before the index grows.
  virtual std::size_t stored_count() const noexcept = 0;

  /// Rows that compete in searches — what k is validated against.
  virtual std::size_t live_count() const noexcept = 0;

  virtual std::size_t dims() const noexcept = 0;
  virtual std::size_t bank_count() const noexcept = 0;

 protected:
  /// Backend write cores behind the guarded public entry points. They
  /// REQUIRE the mutation-serialization capability: callable only after
  /// check_mutable() (synchronous front door) or through the owning
  /// AsyncAmIndex's serialized write application.
  virtual void do_configure(csp::DistanceMetric metric, int bits)
      REQUIRES(mutation_serialization_) = 0;
  virtual void do_store(const std::vector<std::vector<int>>& database)
      REQUIRES(mutation_serialization_) = 0;
  virtual WriteReceipt do_insert(std::span<const int> vector)
      REQUIRES(mutation_serialization_) = 0;
  virtual WriteReceipt do_remove(std::size_t global_row)
      REQUIRES(mutation_serialization_) = 0;
  virtual WriteReceipt do_update(std::size_t global_row,
                                 std::span<const int> vector)
      REQUIRES(mutation_serialization_) = 0;
  /// Backend-state cores; each throws std::invalid_argument unless
  /// overridden.
  virtual void do_configure_composite(csp::DistanceMetric metric, int bits)
      REQUIRES(mutation_serialization_);
  virtual void do_restore_state(BackendState state)
      REQUIRES(mutation_serialization_);
  virtual std::size_t do_compact() REQUIRES(mutation_serialization_);

  /// Throws MutationWhileServed when an AsyncAmIndex owns this index;
  /// on return the caller holds the (phantom) mutation capability.
  void check_mutable(const char* op) const
      ASSERT_CAPABILITY(mutation_serialization_);
  /// Serves one validated request. A backend may fan the request's rows,
  /// banks or shards across util::parallel_for; inside a batch's fan-out
  /// across requests that inner loop runs inline (util::parallel's
  /// nesting rule). Never affects results.
  virtual SearchResponse search_core(std::span<const int> query,
                                     std::size_t k,
                                     std::uint64_t ordinal) const = 0;

  /// Backend query validation (length/alphabet/configured+stored), same
  /// exceptions as the backend search cores.
  virtual void validate_backend_query(std::span<const int> query) const = 0;

 private:
  /// AsyncAmIndex holds the ownership flag for its lifetime and drives
  /// the unguarded do_* / serve_*_at cores from its dispatcher (its
  /// queue provides the serialization the guards otherwise demand).
  /// Ownership is exclusive: a second wrapper over the same index would
  /// serve duplicate ordinals and race the first one's dispatcher, so
  /// the claim throws instead.
  friend class AsyncAmIndex;
  /// AsyncShardedIndex claims the fleet-level ShardedIndex the same way
  /// (while per-shard AsyncAmIndex wrappers claim each shard), so
  /// direct synchronous use of a served fleet throws at the front door.
  friend class AsyncShardedIndex;
  void claim_async_owner() {
    if (async_owned_.exchange(true, std::memory_order_acq_rel)) {
      throw std::logic_error(
          "AmIndex: already owned by a live AsyncAmIndex");
    }
  }
  void release_async_owner() noexcept {
    async_owned_.store(false, std::memory_order_release);
  }
  /// The owning AsyncAmIndex's side of the capability: its queue
  /// already serializes the operation it is about to apply against
  /// every in-flight search, which is exactly what the capability
  /// stands for. A no-op at runtime; an assertion to the analysis.
  void assert_async_serialized() const
      ASSERT_CAPABILITY(mutation_serialization_) {}

  /// Serial handoff for the still-owning wrapper (the guarded public
  /// setter would reject its own owner): must happen before
  /// release_async_owner(), or a concurrent re-wrap could seed from
  /// the stale pre-session serial.
  void set_query_serial_unguarded(std::uint64_t serial) noexcept
      REQUIRES(mutation_serialization_) {
    query_serial_ = serial;
  }

  /// Unguarded body of search_at, for the owning AsyncAmIndex's
  /// dispatcher.
  SearchResponse serve_at(const SearchRequest& request,
                          std::uint64_t ordinal) const;
  /// Const ordinal-addressed batch core: serves request i at ordinals[i],
  /// consuming nothing (any request.ordinal is ignored in favor of the
  /// argument). Scheduling matches search_batch (see dispatch_batch), and
  /// element i is bit-identical to serve_at(requests[i], ordinals[i]).
  /// This is the serving core the async front door batches onto: it
  /// assigns ordinals at submission time and coalesces here without
  /// perturbing the index's own query serial. Throws
  /// std::invalid_argument when the two spans differ in length, and
  /// validates every request up front.
  std::vector<SearchResponse> serve_batch_at(
      std::span<const SearchRequest> requests,
      std::span<const std::uint64_t> ordinals) const;

  /// Post-validation batch dispatch shared by search_batch and
  /// serve_batch_at: fans the requests across the worker pool.
  std::vector<SearchResponse> dispatch_batch(
      std::span<const SearchRequest> requests,
      std::span<const std::uint64_t> ordinals) const;

  std::uint64_t query_serial_ = 0;
  std::atomic<bool> async_owned_{false};
  /// Phantom — never locked, only asserted (see MutationSerialization).
  MutationSerialization mutation_serialization_;
};

}  // namespace ferex::serve
