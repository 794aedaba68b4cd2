// Tests for the streaming-insert write path: after N insert() calls,
// searches must be bit-identical to a fresh store() of the concatenated
// database — at both fidelities, across bank boundaries, and through
// the composite codec — and insert-then-reconfigure must re-encode
// inserted rows like stored ones.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "arch/banked_am.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"

namespace ferex {
namespace {

void expect_identical(const core::Hit& a, const core::Hit& b) {
  EXPECT_EQ(a.global_row, b.global_row);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.sensed_current_a, b.sensed_current_a);  // bit-exact
  EXPECT_EQ(a.margin_a, b.margin_a);
  EXPECT_EQ(a.nominal_distance, b.nominal_distance);
}

}  // namespace
}  // namespace ferex

namespace ferex::core {
namespace {

using csp::DistanceMetric;

/// Both engines' single-NN winners for each query, query i at ordinal i.
void expect_identical_searches(const FerexEngine& a, const FerexEngine& b,
                               const std::vector<std::vector<int>>& queries) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_identical(a.search_hits_at(queries[i], 1, i).front(),
                     b.search_hits_at(queries[i], 1, i).front());
  }
}

class InsertIdenticalT
    : public ::testing::TestWithParam<std::tuple<DistanceMetric,
                                                 SearchFidelity>> {};

TEST_P(InsertIdenticalT, InsertsMatchFreshStoreBitExactly) {
  const auto [metric, fidelity] = GetParam();
  FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(12, 7, 4, 51);
  const auto queries = data::random_int_vectors(10, 7, 4, 52);

  FerexEngine stored(opt);
  stored.configure(metric, 2);
  stored.store(db);

  FerexEngine streamed(opt);
  streamed.configure(metric, 2);
  for (const auto& row : db) streamed.insert(row);
  EXPECT_EQ(streamed.stored_count(), db.size());

  // Device-level identity: the appended rows drew the same variation
  // stream a fresh construction would have.
  ASSERT_NE(streamed.array(), nullptr);
  for (std::size_t r = 0; r < db.size(); ++r) {
    EXPECT_EQ(streamed.array()->device_vth(r, 3, 0),
              stored.array()->device_vth(r, 3, 0));
    EXPECT_EQ(streamed.array()->device_resistance(r, 3, 0),
              stored.array()->device_resistance(r, 3, 0));
  }
  // Search-level identity, including comparator noise streams.
  expect_identical_searches(streamed, stored, queries);
}

TEST_P(InsertIdenticalT, StoreThenInsertTailMatchesFullStore) {
  const auto [metric, fidelity] = GetParam();
  FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(10, 6, 4, 53);
  const auto queries = data::random_int_vectors(8, 6, 4, 54);

  FerexEngine full(opt);
  full.configure(metric, 2);
  full.store(db);

  FerexEngine partial(opt);
  partial.configure(metric, 2);
  partial.store({db.begin(), db.begin() + 6});
  for (std::size_t r = 6; r < db.size(); ++r) partial.insert(db[r]);

  expect_identical_searches(partial, full, queries);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndFidelities, InsertIdenticalT,
    ::testing::Combine(::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)));

TEST(InsertT, CompositeCodecInsertsMatchFreshStore) {
  FerexOptions opt;
  const auto db = data::random_int_vectors(8, 5, 16, 55);
  const auto queries = data::random_int_vectors(6, 5, 16, 56);

  FerexEngine stored(opt);
  stored.configure_composite(DistanceMetric::kHamming, 4);
  stored.store(db);

  FerexEngine streamed(opt);
  streamed.configure_composite(DistanceMetric::kHamming, 4);
  for (const auto& row : db) streamed.insert(row);

  expect_identical_searches(streamed, stored, queries);
}

TEST(InsertT, InsertThenReconfigureReencodesInsertedRows) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(9, 6, 4, 57);
  for (const auto& row : db) engine.insert(row);

  engine.configure(DistanceMetric::kManhattan, 2);
  EXPECT_EQ(engine.stored_count(), db.size());
  const auto queries = data::random_int_vectors(6, 6, 4, 58);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const auto result = engine.search_hits_at(q, 1, i).front();
    // The winner's reported distance is the Manhattan distance — the
    // inserted rows were re-encoded under the new metric.
    EXPECT_EQ(result.nominal_distance,
              engine.software_distance(q, result.global_row));
  }
}

TEST(InsertT, InsertChargesTheRowWriteCost) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(7, 6, 4, 59);
  circuit::WriteCost streamed_total;
  for (const auto& row : db) {
    const auto cost = engine.insert(row).cost;
    EXPECT_GT(cost.pulses, 0u);
    EXPECT_GT(cost.energy_j, 0.0);
    EXPECT_GT(cost.latency_s, 0.0);
    streamed_total.pulses += cost.pulses;
    streamed_total.energy_j += cost.energy_j;
    streamed_total.latency_s += cost.latency_s;
  }
  // The sum of per-insert receipts is the whole-database program cost.
  const auto full = engine.program_cost();
  EXPECT_EQ(streamed_total.pulses, full.pulses);
  EXPECT_DOUBLE_EQ(streamed_total.energy_j, full.energy_j);
  EXPECT_DOUBLE_EQ(streamed_total.latency_s, full.latency_s);
}

TEST(InsertT, FailedFirstRowRebuildLeavesEngineEmpty) {
  FerexOptions opt;
  // A ladder base past the programmable window makes the array rebuild
  // throw (negative ladder pitch) after the vector itself validated.
  opt.ladder_base_v = 10.0;
  FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(engine.insert(std::vector<int>(4, 1)), std::invalid_argument);
  // The phantom first row was rolled back...
  EXPECT_EQ(engine.stored_count(), 0u);
  // ...so a retry takes the rebuild path again (not a null-array append).
  EXPECT_THROW(engine.insert(std::vector<int>(4, 1)), std::invalid_argument);
  EXPECT_EQ(engine.stored_count(), 0u);
}

TEST(InsertT, RejectsWithoutMutating) {
  FerexEngine engine;
  EXPECT_THROW(engine.insert(std::vector<int>{1, 2}), std::logic_error);
  engine.configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(engine.insert(std::vector<int>{}), std::invalid_argument);

  const auto db = data::random_int_vectors(5, 6, 4, 60);
  for (const auto& row : db) engine.insert(row);

  EXPECT_THROW(engine.insert(std::vector<int>(5, 1)), std::invalid_argument);
  EXPECT_THROW(engine.insert(std::vector<int>(6, 99)), std::out_of_range);
  EXPECT_EQ(engine.stored_count(), db.size());

  // The failed inserts left the engine bit-identical to an untouched one.
  FerexEngine fresh;
  fresh.configure(DistanceMetric::kHamming, 2);
  fresh.store(db);
  expect_identical_searches(engine, fresh,
                            data::random_int_vectors(1, 6, 4, 61));
}

}  // namespace
}  // namespace ferex::core

namespace ferex::arch {
namespace {

using csp::DistanceMetric;
using core::SearchFidelity;

class BankedInsertT : public ::testing::TestWithParam<SearchFidelity> {};

TEST_P(BankedInsertT, InsertsAcrossBankBoundariesMatchFreshStore) {
  BankedOptions opt;
  opt.bank_rows = 4;
  opt.engine.fidelity = GetParam();
  const auto db = data::random_int_vectors(11, 6, 4, 62);  // 4 + 4 + 3
  const auto queries = data::random_int_vectors(8, 6, 4, 63);

  BankedAm stored(opt);
  stored.configure(DistanceMetric::kHamming, 2);
  stored.store(db);

  BankedAm streamed(opt);
  streamed.configure(DistanceMetric::kHamming, 2);
  for (std::size_t r = 0; r < db.size(); ++r) {
    const auto receipt = streamed.insert(db[r]);
    EXPECT_EQ(receipt.global_row, r);
    EXPECT_EQ(receipt.bank, r / opt.bank_rows);  // banks grown on demand
    EXPECT_GT(receipt.cost.pulses, 0u);
  }
  EXPECT_EQ(streamed.bank_count(), stored.bank_count());
  EXPECT_EQ(streamed.stored_count(), stored.stored_count());
  EXPECT_EQ(streamed.dims(), 6u);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_identical(streamed.search_at(queries[i], i),
                     stored.search_at(queries[i], i));
  }
  // k-NN crosses bank boundaries identically too.
  const auto all_stored = stored.search_k_hits(queries.front(), db.size());
  const auto all_streamed = streamed.search_k_hits(queries.front(), db.size());
  ASSERT_EQ(all_stored.size(), all_streamed.size());
  for (std::size_t i = 0; i < all_stored.size(); ++i) {
    expect_identical(all_streamed[i], all_stored[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Fidelities, BankedInsertT,
                         ::testing::Values(SearchFidelity::kCircuit,
                                           SearchFidelity::kNominal));

TEST(BankedInsertErrorsT, RejectsWithoutMutating) {
  BankedAm am;
  EXPECT_THROW(am.insert(std::vector<int>{1}), std::logic_error);
  am.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(3, 6, 4, 64);
  for (const auto& row : db) am.insert(row);
  EXPECT_THROW(am.insert(std::vector<int>(4, 1)), std::invalid_argument);
  EXPECT_THROW(am.insert(std::vector<int>(6, 99)), std::out_of_range);
  EXPECT_EQ(am.stored_count(), db.size());
  EXPECT_EQ(am.bank_count(), 1u);
}

TEST(BankedInsertErrorsT, WrongLengthAtBankBoundaryDoesNotGrowABank) {
  BankedOptions opt;
  opt.bank_rows = 2;
  BankedAm am(opt);
  am.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(2, 6, 4, 65);
  for (const auto& row : db) am.insert(row);
  // The next insert must open a new bank; a malformed vector must not.
  EXPECT_THROW(am.insert(std::vector<int>(7, 1)), std::invalid_argument);
  EXPECT_EQ(am.bank_count(), 1u);
  EXPECT_EQ(am.stored_count(), 2u);
  const auto receipt = am.insert(std::vector<int>(6, 1));
  EXPECT_EQ(receipt.bank, 1u);
  EXPECT_EQ(am.bank_count(), 2u);
}

}  // namespace
}  // namespace ferex::arch
