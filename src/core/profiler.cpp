#include "core/profiler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ferex::core {

namespace {

/// Linear-interpolated percentile over sorted samples — the same
/// convention as benchjson::percentile_sorted (kept local: src never
/// includes bench headers).
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// xorshift64 — cheap RNG for reservoir eviction.
std::uint64_t xorshift64(std::uint64_t x) noexcept {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), rng_(0x9E3779B97F4A7C15ull) {
  samples_.reserve(capacity_);
}

void LatencyReservoir::record(double sample_us) noexcept {
  util::MutexLock lock(mutex_);
  ++seen_;
  max_ = std::max(max_, sample_us);
  if (samples_.size() < capacity_) {
    samples_.push_back(sample_us);  // within the reserved capacity
    return;
  }
  // Reservoir step: replace a random kept sample with probability
  // capacity / seen, so the kept set stays a uniform sample of the
  // stream.
  rng_ = xorshift64(rng_);
  const std::uint64_t r = rng_ % seen_;
  if (r < capacity_) samples_[r] = sample_us;
}

LatencyReservoir::Summary LatencyReservoir::summarize() const {
  Summary summary;
  std::vector<double> sorted;
  {
    util::MutexLock lock(mutex_);
    summary.count = seen_;
    summary.max_us = max_;
    sorted = samples_;
  }
  summary.kept = sorted.size();
  std::sort(sorted.begin(), sorted.end());
  summary.p50_us = percentile_sorted(sorted, 50.0);
  summary.p95_us = percentile_sorted(sorted, 95.0);
  summary.p99_us = percentile_sorted(sorted, 99.0);
  return summary;
}

SearchProfile profile_searches(FerexEngine& engine,
                               std::span<const std::vector<int>> queries,
                               std::size_t histogram_bins) {
  if (!engine.configured() || engine.stored_count() == 0) {
    throw std::logic_error("profile_searches: engine not ready");
  }
  if (histogram_bins == 0) {
    throw std::invalid_argument("profile_searches: histogram_bins == 0");
  }
  SearchProfile profile;
  profile.winner_distance_histogram.assign(histogram_bins, 0);
  std::size_t agreements = 0;
  const circuit::SclSolveStats solves_before =
      engine.array()->scl_solve_stats();

  for (const auto& query : queries) {
    const auto currents = engine.row_currents(query);
    const double unit = engine.sense_unit();

    // Sensed winner and margin.
    std::size_t winner = 0;
    double best = std::numeric_limits<double>::infinity();
    double second = best;
    for (std::size_t r = 0; r < currents.size(); ++r) {
      if (currents[r] < best) {
        second = best;
        best = currents[r];
        winner = r;
      } else if (currents[r] < second) {
        second = currents[r];
      }
    }
    if (currents.size() > 1) {
      profile.margin_units.add((second - best) / unit);
    }

    // Deviation of the winner's sensed current from its nominal distance.
    const int nominal = engine.software_distance(query, winner);
    profile.winner_error_units.add(best / unit - nominal);

    // Does the sensed winner achieve the global software minimum?
    int min_distance = std::numeric_limits<int>::max();
    for (std::size_t r = 0; r < engine.stored_count(); ++r) {
      min_distance = std::min(min_distance, engine.software_distance(query, r));
    }
    if (nominal == min_distance) ++agreements;

    const auto bin = std::min<std::size_t>(static_cast<std::size_t>(
                                               std::max(nominal, 0)),
                                           histogram_bins - 1);
    ++profile.winner_distance_histogram[bin];
    ++profile.queries;
  }
  profile.argmin_agreement =
      profile.queries > 0
          ? static_cast<double>(agreements) /
                static_cast<double>(profile.queries)
          : 0.0;
  const circuit::SclSolveStats solves_after =
      engine.array()->scl_solve_stats();
  profile.scl_solves = solves_after.solves - solves_before.solves;
  profile.scl_non_converged =
      solves_after.non_converged - solves_before.non_converged;
  profile.scl_mean_iterations =
      profile.scl_solves > 0
          ? static_cast<double>(solves_after.iterations -
                                solves_before.iterations) /
                static_cast<double>(profile.scl_solves)
          : 0.0;
  return profile;
}

}  // namespace ferex::core
