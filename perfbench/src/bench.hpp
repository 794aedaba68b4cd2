// Shared pieces of the FeReX benchmark: run options, the metric report,
// seeded inputs, exact software references, and the span recorder.
//
// Every workload drives only the library's public API. The end-to-end
// numbers come from an untraced run; a separate traced run records spans
// around the benchmark's own calls into each layer (see Trace) and the
// per-layer numbers are reduced from those spans plus the counters the
// library already exports (ServeStats, SclSolveStats).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "csp/distance_matrix.hpp"
#include "serve/am_index.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::serve {
class BankedIndex;
class EngineIndex;
class ShardedIndex;
}  // namespace ferex::serve

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Trace;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  /// Directory for WALs and snapshots (inside the checkout; removed by
  /// the launcher afterwards).
  std::string work_dir;
  /// Non-null in the traced run only.
  Trace* trace = nullptr;
};

/// Everything one workload run measured, by metric name.
struct Result {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; any entry makes the run exit non-zero.
  std::vector<std::string> mismatches;
  /// Free-form report lines (sample counts, bases of ratios).
  std::vector<std::string> notes;
  /// False when the load generator fell behind its schedule.
  bool valid = true;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Value{value, unit};
  }
  void mismatch(std::string what);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Sets `name` to the median of repeated timings and notes their range.
  void set_median_of(const std::string& name, const std::vector<double>& reps,
                     const std::string& unit);
  /// Sets `name` to the mean of the middle half of repeated timings (see
  /// interquartile_mean) and notes their range.
  void set_interquartile_mean_of(const std::string& name,
                                 const std::vector<double>& reps,
                                 const std::string& unit);
};

// ---------------------------------------------------------------- stats --

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
/// Mean of the middle half of `xs`. Repeated short timings on a shared
/// host fall into a fast and a slow mode at about even odds, which a
/// median flips between; this moves smoothly with the mix and still
/// ignores stalls.
double interquartile_mean(std::vector<double> xs);
/// Splits `xs` (in arrival order) into `slices` consecutive equal-count
/// parts and returns the median of their p-th percentiles: a tail
/// estimate that one transient stall of the host cannot dominate.
double sliced_percentile(std::span<const double> xs, std::size_t slices,
                         double p);
/// Keeps every pool participant busy for `seconds`. The vCPUs of a
/// virtual machine that were idle for a second or more run several times
/// slower for about the first second of load; every run burns that off
/// at start and again right before its timed window.
void warm_up_cpus(double seconds);
inline constexpr double kWarmUpS = 1.5;
/// Peak resident set size of this process.
double peak_rss_mb();

// --------------------------------------------------------------- inputs --

/// Seeded workload inputs: a clustered synthetic set (8 classes) quantized
/// to `bits`, split into stored rows, write vectors and queries.
struct Inputs {
  std::vector<std::vector<int>> database;
  std::vector<std::vector<int>> fresh;  ///< vectors for inserts/updates
  std::vector<std::vector<int>> queries;
};
Inputs make_inputs(std::size_t rows, std::size_t fresh, std::size_t queries,
                   std::size_t dims, int bits, std::uint64_t seed);

// ----------------------------------------------------------- references --

/// One exact (software) neighbour.
struct Neighbour {
  long long distance = 0;
  std::size_t row = 0;
};

/// Exact k nearest live rows, nearest first, the lower row winning ties.
std::vector<Neighbour> exact_topk(ferex::csp::DistanceMetric metric,
                                  std::span<const std::vector<int>> rows,
                                  std::span<const std::uint8_t> live,
                                  std::span<const int> query, std::size_t k);

/// Hits (of `response`) whose exact distance is at most `kth_distance`.
std::size_t hits_within(ferex::csp::DistanceMetric metric,
                        std::span<const std::vector<int>> rows,
                        std::span<const int> query,
                        const ferex::serve::SearchResponse& response,
                        long long kth_distance);

/// Bit-identical response comparison (rows, banks, currents, margins,
/// nominal distances).
bool same_response(const ferex::serve::SearchResponse& a,
                   const ferex::serve::SearchResponse& b);

// -------------------------------------------------------------- tracing --

/// In-memory span recorder: name, start, end, parent, request id. Spans
/// are kept until the run ends, then written once and reduced to
/// per-name totals and self times (a span's duration minus the
/// durations of its child spans).
class Trace {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit Trace(Clock::time_point epoch) : epoch_(epoch) {}

  /// Records a finished span and returns its id (parent of later spans).
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::uint64_t request);

  struct Totals {
    std::size_t count = 0;
    std::size_t requests = 0;  ///< distinct request ids
    double total_us = 0.0;
    double self_us = 0.0;
  };
  /// Per-name totals over every recorded span.
  std::map<std::string, Totals> reduce() const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;
    std::uint64_t request;
  };
  const Clock::time_point epoch_;
  mutable ferex::util::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// Times `fn` into a span when tracing (returns the span id, or
/// kNoParent when `trace` is null) — the benchmark's one way of
/// recording a layer call.
template <typename Fn>
std::int64_t traced(Trace* trace, const char* name, std::int64_t parent,
                    std::uint64_t request, Fn&& fn) {
  const auto start = Clock::now();
  fn();
  const auto end = Clock::now();
  return trace ? trace->record(name, start, end, parent, request)
               : Trace::kNoParent;
}

/// Replays `requests` (at `ordinals`) layer by layer against a
/// synchronous index, recording one span per layer call: the serving
/// entry point, then the same request one layer down at a time (bank
/// fan-out, engine core, crossbar kernel, LTA). Requests fan across the
/// worker pool, so every call of one request runs inline on one pool
/// participant, as inside search_batch.
void replay_layers(const ferex::serve::BankedIndex& index,
                   std::span<const ferex::serve::SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace);
void replay_layers(const ferex::serve::ShardedIndex& index,
                   std::span<const ferex::serve::SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace);
void replay_layers(const ferex::serve::EngineIndex& index,
                   std::span<const ferex::serve::SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace);

/// Serves `requests` one at a time through search_at (at `ordinals`),
/// then all at once through search_batch, recording the two as spans
/// util.pool.serial and util.pool.batch: the pool's speedup.
void time_pool_speedup(ferex::serve::AmIndex& index,
                       std::span<const ferex::serve::SearchRequest> requests,
                       std::span<const std::uint64_t> ordinals, Trace& trace);

/// Adds the per-layer metrics derived from the replayed span tree (see
/// replay.cpp) to `result`: per-request mean times of each layer's span
/// and self time, plus the share of the replayed service time that the
/// circuit, core and serve layers account for.
void add_layer_metrics(const Trace& trace, Result& result);

// ------------------------------------------------------------ workloads --

Result run_offline_knn(const RunOptions& options);
Result run_online_circuit(const RunOptions& options);
Result run_online_churn(const RunOptions& options);

}  // namespace perfbench
