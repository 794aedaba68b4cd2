// Search-quality profiler: analysis instrumentation for FeReX workloads.
//
// Circuit designers judge an AM deployment by its *margins*: how far the
// winning row's current sits from the runner-up, and how much the sensed
// currents deviate from the nominal integer distances. This profiler
// replays a query workload against an engine at circuit fidelity and
// aggregates those statistics — the quantities that predict Monte-Carlo
// accuracy (Fig. 7) without running the full MC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ferex.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::core {

/// Serve-path latency percentiles from a bounded reservoir sample.
///
/// The serving layer needs p50/p95/p99 of queue-wait and end-to-end
/// latency over an unbounded stream in bounded memory. The reservoir
/// keeps at most `capacity` samples — a uniform sample of everything
/// recorded (reservoir sampling once full) — plus the exact count and
/// maximum. Its one recorder in the serving stack is the AsyncAmIndex
/// dispatcher thread, so the mutex is uncontended on the hot path; it
/// makes record() safe from any thread and lets summarize() read from
/// any thread mid-traffic. record() never allocates: the sample array is
/// reserved at construction.
///
/// A snapshot taken mid-traffic is a sample of a moving stream; quiesce
/// first when exact counts matter.
class LatencyReservoir {
 public:
  /// `capacity` bounds memory: at most this many samples are kept
  /// (uniformly subsampled past it).
  explicit LatencyReservoir(std::size_t capacity = 512);

  LatencyReservoir(const LatencyReservoir&) = delete;
  LatencyReservoir& operator=(const LatencyReservoir&) = delete;

  /// Records one sample (microseconds by convention).
  void record(double sample_us) noexcept;

  struct Summary {
    std::uint64_t count = 0;  ///< samples offered to record()
    std::uint64_t kept = 0;   ///< samples retained in the reservoir
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;  ///< exact (tracked outside the reservoir)
  };

  /// Percentiles over the kept samples (linear interpolation, the
  /// bench_json convention), copied out under the lock.
  Summary summarize() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::uint64_t seen_ GUARDED_BY(mutex_) = 0;
  double max_ GUARDED_BY(mutex_) = 0.0;
  std::uint64_t rng_ GUARDED_BY(mutex_);  ///< reservoir eviction state
  std::vector<double> samples_ GUARDED_BY(mutex_);
};

struct SearchProfile {
  std::size_t queries = 0;

  /// Sensed winner-to-runner-up margin, in unit currents.
  util::RunningStats margin_units;

  /// |sensed - nominal| of the winning row, in unit currents (captures
  /// leakage, clamp error and variation in one number).
  util::RunningStats winner_error_units;

  /// Fraction of queries where the circuit winner achieves the true
  /// (software) minimum distance.
  double argmin_agreement = 0.0;

  /// Histogram of winning nominal distances (index = distance, clipped).
  std::vector<std::size_t> winner_distance_histogram;

  /// ScL solve behaviour during the replay (one safeguarded Newton solve
  /// per row per circuit-fidelity query; all zero at nominal fidelity,
  /// where no solves run): how many passes after the first the solves
  /// ran (circuit::SclSolveStats::iterations) and how many hit the step
  /// cap without meeting the tolerance, which would otherwise go unseen.
  std::uint64_t scl_solves = 0;
  double scl_mean_iterations = 0.0;
  std::uint64_t scl_non_converged = 0;
};

/// Replays `queries` against the engine and aggregates search-quality
/// statistics. The engine must be configured and loaded; queries are
/// evaluated at the engine's configured fidelity.
SearchProfile profile_searches(FerexEngine& engine,
                               std::span<const std::vector<int>> queries,
                               std::size_t histogram_bins = 32);

}  // namespace ferex::core
