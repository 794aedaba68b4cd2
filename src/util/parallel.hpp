// Persistent worker pool for data-parallel fan-out.
//
// Batched search amortizes per-query overheads by running independent
// queries concurrently; intra-query parallelism fans one query's rows,
// banks or shards the same way. The unit of work is microseconds of
// float math, so per-call std::thread spawn (tens of microseconds each)
// used to dominate at small geometries. parallel_for therefore runs on a
// process-wide pool of workers spawned lazily on the first
// multi-threaded call and reused for every call after it: submission is
// a mutex acquisition and a condition-variable wake, not a thread
// launch.
//
// Semantics:
//   * fn(0) .. fn(n-1) each run exactly once unless an earlier item threw;
//   * the call blocks until every claimed item finished;
//   * the first exception thrown by any fn is rethrown on the calling
//     thread after the fan-in; remaining unclaimed items are skipped;
//   * fn must be safe to call concurrently for distinct indices.
//
// Scheduling rules the implementation adds:
//   * nesting: an item of a multi-item parallel_for runs its own
//     parallel_for inline, on whichever thread runs the item — a pool
//     worker, the submitter while it drains, or a caller that took the
//     fallback below. (A lone item is no fan-out: it runs as a plain
//     call and may fan out itself.) Pools never nest, so callers need
//     no flag of their own to keep an inner loop serial inside an
//     outer fan-out;
//   * when another thread's parallel_for currently owns the pool, the
//     call runs its items inline on the caller instead of queueing
//     behind it.
// Neither rule affects results: every caller in this codebase is
// bit-identical across schedules by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace ferex::util {

/// Width of the worker pool for unbounded work: hardware_concurrency,
/// and at least 1. The FEREX_POOL_WIDTH environment variable (1..512),
/// read once at first use, overrides the detected width — for pinned
/// containers whose hardware_concurrency misreports the cgroup quota,
/// and for exercising the pool on single-core hosts.
std::size_t pool_width() noexcept;

/// True while the calling thread runs items of a parallel_for under the
/// nesting rule: a parallel_for issued now would run inline.
bool on_pool_worker() noexcept;

/// Runs fn(0), fn(1), ..., fn(n - 1) across the persistent worker pool
/// (inline when pool_width() is 1, n <= 1, or the pool is unavailable —
/// see the scheduling rules above). Blocks until all claimed items
/// finish; the first exception thrown by any fn is rethrown on the
/// calling thread after the fan-in, and remaining items may be skipped.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ferex::util
