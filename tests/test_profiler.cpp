// Unit tests for the search-quality profiler and the serve-path latency
// reservoir.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "util/rng.hpp"

namespace ferex::core {
namespace {

using csp::DistanceMetric;

FerexEngine ready_engine(bool noisy) {
  FerexOptions opt;
  if (!noisy) {
    opt.circuit.variation.enabled = false;
    opt.circuit.fet.ss_mv_per_dec = 15.0;
    opt.circuit.opamp.output_res_ohm = 0.0;
    opt.lta.offset_sigma_rel = 0.0;
  }
  FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  util::Rng rng(noisy ? 2 : 1);
  std::vector<std::vector<int>> db(10, std::vector<int>(16));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(4));
  }
  engine.store(db);
  return engine;
}

std::vector<std::vector<int>> random_queries(std::size_t n) {
  util::Rng rng(33);
  std::vector<std::vector<int>> queries(n, std::vector<int>(16));
  for (auto& q : queries) {
    for (auto& v : q) v = static_cast<int>(rng.uniform_below(4));
  }
  return queries;
}

TEST(Profiler, ExactEngineHasPerfectAgreementAndZeroError) {
  auto engine = ready_engine(/*noisy=*/false);
  const auto queries = random_queries(20);
  const auto profile = profile_searches(engine, queries);
  EXPECT_EQ(profile.queries, 20u);
  EXPECT_DOUBLE_EQ(profile.argmin_agreement, 1.0);
  EXPECT_NEAR(profile.winner_error_units.mean(), 0.0, 0.02);
  EXPECT_GE(profile.margin_units.min(), 0.0);
}

TEST(Profiler, NoisyEngineShowsErrorButBoundedMarginLoss) {
  auto engine = ready_engine(/*noisy=*/true);
  const auto queries = random_queries(30);
  const auto profile = profile_searches(engine, queries);
  // Variation + leakage must be visible in the winner error spread...
  EXPECT_GT(profile.winner_error_units.stddev(), 1e-4);
  // ...yet with random data (large distances) agreement stays high.
  EXPECT_GT(profile.argmin_agreement, 0.8);
}

TEST(Profiler, HistogramCountsSumToQueries) {
  auto engine = ready_engine(false);
  const auto queries = random_queries(25);
  const auto profile = profile_searches(engine, queries, 8);
  std::size_t total = 0;
  for (auto c : profile.winner_distance_histogram) total += c;
  EXPECT_EQ(total, 25u);
  EXPECT_EQ(profile.winner_distance_histogram.size(), 8u);
}

TEST(Profiler, RejectsUnreadyEngineAndBadBins) {
  FerexEngine engine;
  const auto queries = random_queries(1);
  EXPECT_THROW(profile_searches(engine, queries), std::logic_error);
  auto ready = ready_engine(false);
  EXPECT_THROW(profile_searches(ready, queries, 0), std::invalid_argument);
}

// ----------------------------------------------------- LatencyReservoir --

TEST(LatencyReservoirT, ExactPercentilesBelowCapacity) {
  LatencyReservoir reservoir(/*capacity=*/2048);
  for (int i = 1; i <= 1000; ++i) reservoir.record(static_cast<double>(i));
  const auto summary = reservoir.summarize();
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_EQ(summary.kept, 1000u);
  // Linear interpolation over 1..1000 (the bench_json convention).
  EXPECT_NEAR(summary.p50_us, 500.5, 1e-9);
  EXPECT_NEAR(summary.p95_us, 950.05, 1e-9);
  EXPECT_NEAR(summary.p99_us, 990.01, 1e-9);
  EXPECT_EQ(summary.max_us, 1000.0);
}

TEST(LatencyReservoirT, ReservoirCapsKeptSamplesButCountsEverything) {
  LatencyReservoir reservoir(/*capacity=*/64);
  for (int i = 1; i <= 10000; ++i) reservoir.record(static_cast<double>(i));
  const auto summary = reservoir.summarize();
  EXPECT_EQ(summary.count, 10000u);
  EXPECT_EQ(summary.kept, 64u);
  EXPECT_EQ(summary.max_us, 10000.0);  // exact even when evicted
  EXPECT_GE(summary.p50_us, 1.0);
  EXPECT_LE(summary.p50_us, 10000.0);
  EXPECT_LE(summary.p50_us, summary.p95_us);
  EXPECT_LE(summary.p95_us, summary.p99_us);
}

TEST(LatencyReservoirT, ConcurrentRecordersMerge) {
  LatencyReservoir reservoir(/*capacity=*/4096);
  constexpr std::size_t kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&reservoir, t] {
      for (std::size_t i = 1; i <= kPerThread; ++i) {
        reservoir.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : recorders) thread.join();
  const auto summary = reservoir.summarize();
  EXPECT_EQ(summary.count, kThreads * kPerThread);
  EXPECT_EQ(summary.kept, kThreads * kPerThread);  // under capacity
  EXPECT_EQ(summary.max_us, static_cast<double>(kThreads * kPerThread));
  // Merged p50 over 1..4000 recorded across four disjoint ranges.
  EXPECT_NEAR(summary.p50_us, 2000.5, 1e-9);
}

TEST(LatencyReservoirT, IndependentInstancesKeepSeparateSamples) {
  LatencyReservoir a(16), b(16);
  a.record(1.0);
  b.record(100.0);
  EXPECT_EQ(a.summarize().count, 1u);
  EXPECT_EQ(b.summarize().count, 1u);
  EXPECT_EQ(a.summarize().max_us, 1.0);
  EXPECT_EQ(b.summarize().max_us, 100.0);
}

}  // namespace
}  // namespace ferex::core
