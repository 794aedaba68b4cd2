// Search-quality profiler: analysis instrumentation for FeReX workloads.
//
// Circuit designers judge an AM deployment by its *margins*: how far the
// winning row's current sits from the runner-up, and how much the sensed
// currents deviate from the nominal integer distances. This profiler
// replays a query workload against an engine at circuit fidelity and
// aggregates those statistics — the quantities that predict Monte-Carlo
// accuracy (Fig. 7) without running the full MC.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ferex.hpp"
#include "util/stats.hpp"

namespace ferex::core {

/// Serve-path latency percentiles via a lock-free per-thread reservoir.
///
/// The serving layer needs p50/p95/p99 of queue-wait and end-to-end
/// latency without perturbing the path it measures: a mutex-guarded
/// sample vector would serialize exactly the threads whose concurrency
/// is being benchmarked. Instead each recording thread owns one slot —
/// claimed once with a CAS, cached thread-locally — and appends into a
/// fixed-size sample array with relaxed atomic stores (reservoir
/// sampling once the array is full, so the kept set stays a uniform
/// sample of everything seen). record() takes no locks and never blocks
/// another recorder.
///
/// summarize() merges the per-thread reservoirs into percentiles. It can
/// run concurrently with recorders — the atomics make that well-defined
/// under TSan — but a snapshot taken mid-traffic is a sample of a moving
/// stream; quiesce first when exact counts matter. More recording
/// threads than kSlots is not an error: overflow records are counted
/// (and reported via Summary::dropped) rather than taken.
class LatencyReservoir {
 public:
  /// Max concurrent recording threads tracked slot-per-thread.
  static constexpr std::size_t kSlots = 64;

  /// `capacity_per_thread` bounds memory: each recording thread keeps at
  /// most this many samples (uniformly subsampled past it).
  explicit LatencyReservoir(std::size_t capacity_per_thread = 512);

  LatencyReservoir(const LatencyReservoir&) = delete;
  LatencyReservoir& operator=(const LatencyReservoir&) = delete;

  /// Records one sample (microseconds by convention). Lock-free; safe
  /// from any number of threads concurrently.
  void record(double sample_us) noexcept;

  struct Summary {
    std::uint64_t count = 0;    ///< samples offered to record()
    std::uint64_t kept = 0;     ///< samples retained in the reservoirs
    std::uint64_t dropped = 0;  ///< records lost to slot exhaustion
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;  ///< exact (tracked outside the reservoir)
  };

  /// Merges every thread's reservoir into percentiles (linear
  /// interpolation over the kept samples, the bench_json convention).
  Summary summarize() const;

 private:
  /// Thread-safety: deliberately lock-free, so these fields are exempt
  /// from GUARDED_BY — there is no capability to name. `owner` is the
  /// synchronization point: a slot is claimed with a CAS and from then
  /// on `seen`/`max`/`samples` take relaxed atomic accesses (summarize()
  /// may read mid-stream by design; see the class comment). `rng` is the
  /// one plain field — only ever touched by the thread whose CAS won the
  /// slot, which is exactly the ownership discipline the CAS encodes.
  struct Slot {
    std::atomic<std::uint64_t> owner{0};  ///< hashed thread id; 0 = free
    std::atomic<std::uint64_t> seen{0};   ///< samples offered to this slot
    std::atomic<double> max{0.0};
    std::uint64_t rng = 0;  ///< owner-thread-only reservoir RNG state
    std::vector<std::atomic<double>> samples;
  };

  /// This thread's slot, claiming one on first use (nullptr when all
  /// kSlots are owned by other live threads).
  Slot* slot_for_this_thread() noexcept;

  const std::size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> dropped_{0};
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
  /// where no solves run): how many Newton steps the solves took and how
  /// many hit the step cap without meeting the tolerance, which would
  /// otherwise go unseen.
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
