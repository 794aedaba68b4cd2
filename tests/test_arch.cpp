// Unit + integration tests for the banked multi-macro architecture.
#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <vector>

#include "arch/banked_am.hpp"
#include "circuit/lta.hpp"
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
                                  db[banked_result.global_row]),
              ml::vector_distance(DistanceMetric::kManhattan, query,
                                  db[single_result.global_row]));
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
    EXPECT_EQ(ml::vector_distance(DistanceMetric::kHamming, query,
                                  db[hw[i].global_row]),
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

TEST(BankedAmT, RestoreStateRejectsShapesRoutingCannotAddress) {
  // Routing is arithmetic (bank = row / bank_rows), so only the shapes
  // store() and insert() build install; a rejected state changes nothing.
  const auto db = random_db(8, 4, 4, 13);  // 3 + 3 + 2
  BankedAm am(exact_banked(3));
  am.configure(DistanceMetric::kHamming, 2);
  am.store(db);
  const auto state = am.snapshot_state();
  auto short_middle = state;
  short_middle.banks[1] = state.banks[2];
  EXPECT_THROW(am.restore_state(short_middle), std::invalid_argument);
  auto empty_last = state;
  empty_last.banks[2] = {};
  EXPECT_THROW(am.restore_state(empty_last), std::invalid_argument);
  EXPECT_EQ(am.stored_count(), 8u);
  EXPECT_EQ(am.search_at(db[7], 0).global_row, 7u);
  am.restore_state(state);
  EXPECT_EQ(am.search_k_hits(db[4], 8).front().global_row, 4u);
}

// ---------------------------------------------------- merge oracle --
//
// BankedAm decides through merge_hits over per-bank results. The oracle
// rebuilds the two global stages it replaced from public accessors: one
// noiseless masking pass over the concatenated bank currents (k-NN) and
// one noiseless comparator over the bank winners (k = 1, a sole live
// bank keeping its own margin). Every hit field must match bit for bit.

std::vector<core::Hit> concatenated_knn(const BankedAm& am,
                                        std::span<const int> query,
                                        std::size_t k) {
  std::vector<double> currents;
  std::vector<std::uint8_t> live;
  for (std::size_t b = 0; b < am.bank_count(); ++b) {
    const auto bank_currents = am.bank(b).row_currents(query);
    currents.insert(currents.end(), bank_currents.begin(),
                    bank_currents.end());
    const auto mask = am.bank(b).live_mask();
    live.insert(live.end(), mask.begin(), mask.end());
  }
  const circuit::LtaCircuit lta(am.options().engine.lta);
  const std::size_t rows = am.options().bank_rows;
  std::vector<core::Hit> hits;
  for (const auto& decision : lta.decide_k_detailed(
           currents, am.bank(0).sense_unit(), k, nullptr, live)) {
    core::Hit hit;
    hit.global_row = decision.winner;
    hit.bank = decision.winner / rows;
    hit.sensed_current_a = decision.winner_current_a;
    hit.margin_a = decision.margin_a;
    hit.nominal_distance =
        am.bank(hit.bank).nominal_distance(query, decision.winner % rows);
    hits.push_back(hit);
  }
  return hits;
}

core::Hit bank_winner_comparator(const BankedAm& am,
                                 std::span<const int> query,
                                 std::uint64_t ordinal) {
  std::vector<core::Hit> winners(am.bank_count());
  std::vector<double> currents(am.bank_count(), 0.0);
  std::vector<std::uint8_t> live(am.bank_count(), 0);
  std::size_t live_banks = 0;
  for (std::size_t b = 0; b < am.bank_count(); ++b) {
    if (am.bank(b).live_count() == 0) continue;
    winners[b] = am.bank(b).search_hits_at(query, 1, ordinal).front();
    currents[b] = winners[b].sensed_current_a;
    live[b] = 1;
    ++live_banks;
  }
  const circuit::LtaCircuit lta(am.options().engine.lta);
  const auto decision = lta.decide(currents, 1.0, nullptr, live);
  core::Hit hit = winners[decision.winner];
  hit.global_row += decision.winner * am.options().bank_rows;
  hit.bank = decision.winner;
  hit.sensed_current_a = decision.winner_current_a;
  if (live_banks > 1) hit.margin_a = decision.margin_a;
  return hit;
}

void expect_same_hit(const core::Hit& a, const core::Hit& b) {
  EXPECT_EQ(a.global_row, b.global_row);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.sensed_current_a, b.sensed_current_a);
  EXPECT_EQ(a.margin_a, b.margin_a);
  EXPECT_EQ(a.nominal_distance, b.nominal_distance);
}

class BankedMergeOracleT
    : public ::testing::TestWithParam<
          std::tuple<DistanceMetric, core::SearchFidelity, std::size_t>> {};

TEST_P(BankedMergeOracleT, MergeMatchesConcatenatedAndWinnerComparators) {
  const auto [metric, fidelity, bank_rows] = GetParam();
  constexpr std::size_t kRows = 20;
  constexpr std::size_t kDims = 5;
  auto db = random_db(kRows, kDims, 4, 11);
  // Copies across banks (and within the wide banks) tie exactly at
  // nominal fidelity, so the tie rule decides.
  db[9] = db[0];
  db[14] = db[3];
  db[17] = db[5];
  db[19] = db[9];
  auto queries = random_db(4, kDims, 4, 12);
  queries.push_back(db[0]);
  queries.push_back(db[3]);

  // Removals: none; scattered; every bank but bank 1.
  const std::vector<std::vector<std::size_t>> removals = {
      {},
      {1, 4, 9, 13, 18},
      [&] {
        std::vector<std::size_t> rows;
        for (std::size_t r = 0; r < kRows; ++r) {
          if (r / bank_rows != 1) rows.push_back(r);
        }
        return rows;
      }(),
  };
  for (const auto& removed : removals) {
    BankedOptions opt;
    opt.bank_rows = bank_rows;
    opt.engine.fidelity = fidelity;
    BankedAm am(opt);
    am.configure(metric, 2);
    am.store(db);
    for (const std::size_t r : removed) am.remove(r);
    SCOPED_TRACE("removed " + std::to_string(removed.size()) + " rows");
    for (const auto& q : queries) {
      for (std::size_t k = 1; k <= am.live_count(); ++k) {
        SCOPED_TRACE("k = " + std::to_string(k));
        const auto hits = am.search_k_hits(q, k);
        const auto expected = concatenated_knn(am, q, k);
        ASSERT_EQ(hits.size(), expected.size());
        for (std::size_t i = 0; i < hits.size(); ++i) {
          expect_same_hit(hits[i], expected[i]);
        }
      }
      for (const std::uint64_t ordinal : {0ull, 1ull, 7ull, 4242ull}) {
        expect_same_hit(am.search_at(q, ordinal),
                        bank_winner_comparator(am, q, ordinal));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsFidelitiesBankRows, BankedMergeOracleT,
    ::testing::Combine(::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan,
                                         DistanceMetric::kEuclideanSquared),
                       ::testing::Values(core::SearchFidelity::kCircuit,
                                         core::SearchFidelity::kNominal),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{8})));

}  // namespace
}  // namespace ferex::arch
