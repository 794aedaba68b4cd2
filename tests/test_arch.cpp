// Unit + integration tests for the banked multi-macro architecture.
#include <gtest/gtest.h>

#include "arch/banked_am.hpp"
#include "ml/knn.hpp"
#include "util/rng.hpp"

namespace ferex::arch {
namespace {

using csp::DistanceMetric;

BankedOptions exact_banked(std::size_t bank_rows) {
  BankedOptions opt;
  opt.bank_rows = bank_rows;
  opt.engine.circuit.variation.enabled = false;
  opt.engine.circuit.fet.ss_mv_per_dec = 15.0;
  opt.engine.circuit.opamp.output_res_ohm = 0.0;
  opt.engine.lta.offset_sigma_rel = 0.0;
  return opt;
}

std::vector<std::vector<int>> random_db(std::size_t rows, std::size_t dims,
                                        int levels, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(levels));
  }
  return db;
}

TEST(BankedAmT, PartitionsRowsAcrossBanks) {
  BankedAm am(exact_banked(8));
  am.configure(DistanceMetric::kHamming, 2);
  am.store(random_db(20, 6, 4, 1));
  EXPECT_EQ(am.bank_count(), 3u);  // 8 + 8 + 4
  EXPECT_EQ(am.stored_count(), 20u);
}

TEST(BankedAmT, SearchAgreesWithSingleMacro) {
  const auto db = random_db(30, 10, 4, 2);
  BankedAm banked(exact_banked(7));
  banked.configure(DistanceMetric::kManhattan, 2);
  banked.store(db);

  core::FerexOptions single_opt = exact_banked(1).engine;
  core::FerexEngine single(single_opt);
  single.configure(DistanceMetric::kManhattan, 2);
  single.store(db);

  util::Rng rng(3);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    std::vector<int> query(10);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
    const auto banked_result = banked.search_at(query, trial);
    const auto single_result = single.search_hits_at(query, 1, trial).front();
    // Winning distances must agree (indices can differ on ties).
    EXPECT_EQ(ml::vector_distance(DistanceMetric::kManhattan, query,
                                  db[banked_result.nearest]),
              ml::vector_distance(DistanceMetric::kManhattan, query,
                                  db[single_result.nearest]));
  }
}

TEST(BankedAmT, SearchKMatchesSoftwareRanks) {
  const auto db = random_db(25, 8, 4, 4);
  util::Matrix<int> db_matrix(25, 8, 0);
  for (std::size_t r = 0; r < 25; ++r) {
    for (std::size_t d = 0; d < 8; ++d) db_matrix.at(r, d) = db[r][d];
  }
  BankedAm am(exact_banked(6));
  am.configure(DistanceMetric::kHamming, 2);
  am.store(db);

  util::Rng rng(5);
  std::vector<int> query(8);
  for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
  const auto hw = am.search_k_hits(query, 5);
  const auto sw = ml::knn_indices(DistanceMetric::kHamming, db_matrix, query, 5);
  ASSERT_EQ(hw.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(
        ml::vector_distance(DistanceMetric::kHamming, query, db[hw[i].nearest]),
        ml::vector_distance(DistanceMetric::kHamming, query, db[sw[i]]));
  }
}

TEST(BankedAmT, DelayGrowsSlowlyEnergyGrowsLinearlyWithBanks) {
  const auto small_db = random_db(16, 32, 4, 6);
  const auto large_db = random_db(128, 32, 4, 6);
  BankedAm small(exact_banked(16)), large(exact_banked(16));
  for (auto* am : {&small, &large}) am->configure(DistanceMetric::kHamming, 2);
  small.store(small_db);
  large.store(large_db);
  ASSERT_EQ(small.bank_count(), 1u);
  ASSERT_EQ(large.bank_count(), 8u);
  // Banks fire in parallel: delay grows only by the global stage.
  EXPECT_LT(large.search_delay_s(), small.search_delay_s() * 1.8);
  // Energy: all banks burn.
  EXPECT_GT(large.search_energy_j(), small.search_energy_j() * 6.0);
}

TEST(BankedAmT, WorksWithCompositeEncodingAcrossBanks) {
  const auto db = random_db(12, 6, 8, 7);  // 3-bit values
  BankedAm am(exact_banked(5));
  // configure() on BankedAm is monolithic; composite is reached through
  // the engine options at store time — emulate via per-bank configure.
  am.configure(DistanceMetric::kHamming, 3);
  // 3-bit monolithic is infeasible: store must throw through the engine.
  EXPECT_THROW(am.store(db), std::runtime_error);
}

TEST(BankedAmT, LifecycleGuards) {
  BankedAm am(exact_banked(4));
  const std::vector<int> q{0};
  EXPECT_THROW(am.search_at(q, 0), std::logic_error);
  EXPECT_THROW(am.store({{0}}), std::logic_error);  // configure first
  am.configure(DistanceMetric::kHamming, 1);
  EXPECT_THROW(am.store({}), std::invalid_argument);
  am.store({{0, 1}, {1, 0}, {1, 1}});
  EXPECT_THROW(am.search_k_hits(std::vector<int>{0, 1}, 0),
               std::invalid_argument);
  EXPECT_THROW(am.search_k_hits(std::vector<int>{0, 1}, 9),
               std::invalid_argument);
  EXPECT_THROW(BankedAm(BankedOptions{.bank_rows = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ferex::arch
