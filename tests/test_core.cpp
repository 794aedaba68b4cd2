// Unit tests for the FeReX engine: configuration across metrics,
// reconfiguration on live data, search correctness at both fidelities,
// k-NN queries, and the energy/delay surface.
#include <gtest/gtest.h>

#include "core/ferex.hpp"

namespace ferex::core {
namespace {

using csp::DistanceMetric;

std::vector<std::vector<int>> toy_database() {
  return {{0, 0, 0, 0}, {1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3},
          {0, 1, 2, 3}, {3, 2, 1, 0}};
}

/// The single-NN winner at `ordinal` (the search core at k = 1).
Hit nearest(const FerexEngine& engine, std::span<const int> query,
                     std::uint64_t ordinal = 0) {
  return engine.search_hits_at(query, 1, ordinal).front();
}

FerexOptions noiseless_options() {
  FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.lta.offset_sigma_rel = 0.0;
  return opt;
}

TEST(FerexEngine, LifecycleGuards) {
  FerexEngine engine;
  EXPECT_FALSE(engine.configured());
  const std::vector<int> q{0};
  EXPECT_THROW(engine.search_hits_at(q, 1, 0), std::logic_error);
  EXPECT_THROW(engine.encoding(), std::logic_error);
  EXPECT_THROW(engine.distance_matrix(), std::logic_error);
  EXPECT_THROW(engine.store({}), std::invalid_argument);
  EXPECT_THROW(engine.store({{1, 2}, {1}}), std::invalid_argument);
}

TEST(FerexEngine, ConfigureThenStoreThenSearch) {
  FerexEngine engine(noiseless_options());
  engine.configure(DistanceMetric::kHamming, 2);
  EXPECT_TRUE(engine.configured());
  engine.store(toy_database());
  EXPECT_EQ(engine.stored_count(), 6u);
  EXPECT_EQ(engine.dims(), 4u);

  const std::vector<int> query{1, 1, 1, 1};
  const auto result = nearest(engine, query);
  EXPECT_EQ(result.global_row, 1u);  // exact match stored at row 1
  EXPECT_EQ(result.nominal_distance, 0);
}

TEST(FerexEngine, SearchMatchesSoftwareArgminAcrossMetrics) {
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    auto opt = noiseless_options();
    opt.encoder.max_fefets_per_cell = 6;
    opt.encoder.max_vds_multiple = 5;
    FerexEngine engine(opt);
    engine.configure(metric, 2);
    engine.store(toy_database());
    util::Rng rng(42);
    for (std::uint64_t trial = 0; trial < 30; ++trial) {
      std::vector<int> query(4);
      for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
      const auto result = nearest(engine, query, trial);
      // The winner's software distance must equal the global minimum.
      int min_dist = std::numeric_limits<int>::max();
      for (std::size_t r = 0; r < engine.stored_count(); ++r) {
        min_dist = std::min(min_dist, engine.software_distance(query, r));
      }
      EXPECT_EQ(engine.software_distance(query, result.global_row), min_dist)
          << csp::to_string(metric);
    }
  }
}

TEST(FerexEngine, NominalFidelityAgreesWithCircuitWhenNoiseless) {
  auto circuit_opt = noiseless_options();
  auto nominal_opt = noiseless_options();
  nominal_opt.fidelity = SearchFidelity::kNominal;
  FerexEngine circuit_engine(circuit_opt), nominal_engine(nominal_opt);
  for (auto* engine : {&circuit_engine, &nominal_engine}) {
    engine->configure(DistanceMetric::kHamming, 2);
    engine->store(toy_database());
  }
  util::Rng rng(7);
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    std::vector<int> query(4);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
    // Winners may differ on exact distance ties (the tiny subthreshold
    // leak perturbs tie-breaking); the winning *distance* must agree.
    const auto c = nearest(circuit_engine, query, trial);
    const auto n = nearest(nominal_engine, query, trial);
    EXPECT_EQ(circuit_engine.software_distance(query, c.global_row),
              nominal_engine.software_distance(query, n.global_row));
  }
}

TEST(FerexEngine, ReconfigurationChangesWinner) {
  // The reconfigurability headline: same stored data, different metric,
  // different nearest neighbor. Query 2 vs stored {0, 3}: Hamming says 3
  // is closer to 2 (HD(10,11)=1 < HD(10,00)=1? no — craft carefully).
  //
  // Use scalars: query=1, candidates {2, 3}:
  //   Manhattan: |1-2|=1 < |1-3|=2          -> row 0 (value 2)
  //   Hamming:   HD(01,10)=2, HD(01,11)=1   -> row 1 (value 3)
  auto opt = noiseless_options();
  FerexEngine engine(opt);
  engine.configure(DistanceMetric::kManhattan, 2);
  engine.store({{2, 2, 2, 2}, {3, 3, 3, 3}});
  const std::vector<int> query{1, 1, 1, 1};
  EXPECT_EQ(nearest(engine, query, 0).global_row, 0u);

  engine.configure(DistanceMetric::kHamming, 2);  // same data, re-encoded
  EXPECT_EQ(nearest(engine, query, 1).global_row, 1u);

  engine.configure(DistanceMetric::kManhattan, 2);  // and back
  EXPECT_EQ(nearest(engine, query, 2).global_row, 0u);
}

TEST(FerexEngine, SearchKReturnsSortedNeighbors) {
  FerexEngine engine(noiseless_options());
  engine.configure(DistanceMetric::kManhattan, 2);
  engine.store({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  const std::vector<int> query{0, 1};
  const auto top3 = engine.search_hits_at(query, 3, 0);
  ASSERT_EQ(top3.size(), 3u);
  // Distances: row0=1, row1=1, row2=3, row3=5.
  EXPECT_TRUE((top3[0].global_row == 0 && top3[1].global_row == 1) ||
              (top3[0].global_row == 1 && top3[1].global_row == 0));
  EXPECT_EQ(top3[2].global_row, 2u);
}

TEST(FerexEngine, CustomDistanceMatrixEndToEnd) {
  // A "don't care on value 3" matrix: distance to stored 3 is always 0.
  util::Matrix<int> values(4, 4, 0);
  for (std::size_t sch = 0; sch < 4; ++sch) {
    for (std::size_t sto = 0; sto < 4; ++sto) {
      values.at(sch, sto) =
          sto == 3 ? 0
                   : std::abs(static_cast<int>(sch) - static_cast<int>(sto));
    }
  }
  FerexEngine engine(noiseless_options());
  engine.configure(csp::DistanceMatrix::custom(std::move(values), "masked-L1"));
  engine.store({{0, 0}, {3, 3}});
  const std::vector<int> query{2, 2};
  // Stored row 1 is all wildcards: distance 0 < |2-0|*2.
  EXPECT_EQ(nearest(engine, query).global_row, 1u);
}

TEST(FerexEngine, InfeasibleConfigurationThrows) {
  FerexOptions opt = noiseless_options();
  opt.encoder.max_fefets_per_cell = 1;
  opt.encoder.max_vds_multiple = 1;
  FerexEngine engine(opt);
  EXPECT_THROW(engine.configure(DistanceMetric::kEuclideanSquared, 2),
               std::runtime_error);
}

TEST(FerexEngine, EncoderReportExposed) {
  FerexEngine engine(noiseless_options());
  engine.configure(DistanceMetric::kHamming, 2);
  EXPECT_EQ(engine.encoder_report().fefets_per_cell, 3);
  EXPECT_EQ(engine.encoding().fefets_per_cell(), 3u);
  EXPECT_EQ(engine.metric(), DistanceMetric::kHamming);
  EXPECT_EQ(engine.bits(), 2);
}

TEST(FerexEngine, SearchCostReflectsGeometry) {
  FerexEngine small_engine(noiseless_options());
  small_engine.configure(DistanceMetric::kHamming, 2);
  small_engine.store(std::vector<std::vector<int>>(8, std::vector<int>(32, 1)));
  FerexEngine large_engine(noiseless_options());
  large_engine.configure(DistanceMetric::kHamming, 2);
  large_engine.store(
      std::vector<std::vector<int>>(128, std::vector<int>(512, 1)));
  const auto small_cost = small_engine.search_cost();
  const auto large_cost = large_engine.search_cost();
  EXPECT_GT(large_cost.total_energy_j(), small_cost.total_energy_j());
  EXPECT_GT(large_cost.total_delay_s(), small_cost.total_delay_s());
}

TEST(FerexEngine, ProgramCostScalesWithDatabase) {
  FerexEngine small_engine(noiseless_options());
  small_engine.configure(DistanceMetric::kHamming, 2);
  small_engine.store(std::vector<std::vector<int>>(4, std::vector<int>(8, 1)));
  FerexEngine large_engine(noiseless_options());
  large_engine.configure(DistanceMetric::kHamming, 2);
  large_engine.store(std::vector<std::vector<int>>(16, std::vector<int>(8, 1)));
  const auto small_cost = small_engine.program_cost();
  const auto large_cost = large_engine.program_cost();
  EXPECT_GT(small_cost.pulses, 0u);
  EXPECT_NEAR(static_cast<double>(large_cost.pulses) /
                  static_cast<double>(small_cost.pulses),
              4.0, 0.01);
  EXPECT_NEAR(large_cost.energy_j / small_cost.energy_j, 4.0, 0.05);
  EXPECT_NEAR(large_cost.latency_s / small_cost.latency_s, 4.0, 0.01);
}

TEST(FerexEngine, ProgramCostRequiresStoredData) {
  FerexEngine engine(noiseless_options());
  EXPECT_THROW(engine.program_cost(), std::logic_error);
  engine.configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(engine.program_cost(), std::logic_error);
}

TEST(FerexEngine, SearchIsMuchCheaperThanReprogramming) {
  // The asymmetry that motivates AM architectures: one search costs
  // orders of magnitude less time than re-writing the array.
  FerexEngine engine(noiseless_options());
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(std::vector<std::vector<int>>(32, std::vector<int>(64, 2)));
  EXPECT_LT(engine.search_cost().total_delay_s() * 100.0,
            engine.program_cost().latency_s);
}

TEST(FerexEngine, StoreBeforeConfigureThenConfigureProgramsArray) {
  FerexEngine engine(noiseless_options());
  engine.store(toy_database());
  EXPECT_EQ(engine.array(), nullptr);  // no encoding yet
  engine.configure(DistanceMetric::kHamming, 2);
  ASSERT_NE(engine.array(), nullptr);
  const std::vector<int> query{3, 3, 3, 3};
  EXPECT_EQ(nearest(engine, query).global_row, 3u);
}

}  // namespace
}  // namespace ferex::core
