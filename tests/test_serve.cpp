// Tests for the AmIndex serving layer: the unified request/response API
// must be bit-identical to each backend's search core at the ordinal it
// assigns (FerexEngine::search_hits_at; BankedAm::search_at for k = 1,
// search_k_hits for k > 1) across metric x fidelity x k x
// single/batched, drivable from const contexts, and must validate
// requests before consuming ordinals.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/banked_am.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"

namespace ferex::serve {
namespace {

using csp::DistanceMetric;
using core::SearchFidelity;

/// Request builder (aggregate init with omitted trailing members trips
/// -Wextra's missing-field-initializers under -Werror).
SearchRequest req(std::vector<int> query, std::size_t k = 1) {
  SearchRequest r;
  r.query = std::move(query);
  r.k = k;
  return r;
}

SearchRequest req_at(std::vector<int> query, std::uint64_t ordinal) {
  SearchRequest r;
  r.query = std::move(query);
  r.ordinal = ordinal;
  return r;
}

void expect_hit_matches(const Hit& hit, const Hit& r) {
  EXPECT_EQ(hit.global_row, r.global_row);
  EXPECT_EQ(hit.bank, r.bank);
  EXPECT_EQ(hit.sensed_current_a, r.sensed_current_a);  // bit-exact
  EXPECT_EQ(hit.margin_a, r.margin_a);
  EXPECT_EQ(hit.nominal_distance, r.nominal_distance);
}

class ServeParityT
    : public ::testing::TestWithParam<std::tuple<DistanceMetric,
                                                 SearchFidelity>> {};

TEST_P(ServeParityT, EngineIndexSearchMatchesCoreBitExactly) {
  const auto [metric, fidelity] = GetParam();
  core::FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(24, 8, 4, 21);
  const auto queries = data::random_int_vectors(12, 8, 4, 22);

  EngineIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  // Request i consumes ordinal i, so its hit is the engine core's at i.
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    const auto response = index.search(req(queries[i]));
    ASSERT_EQ(response.hits.size(), 1u);
    expect_hit_matches(response.best(),
                       index.engine().search_hits_at(queries[i], 1, i).front());
  }
  EXPECT_EQ(index.query_serial(), queries.size());
}

TEST_P(ServeParityT, EngineIndexTopKMatchesCore) {
  const auto [metric, fidelity] = GetParam();
  core::FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(24, 8, 4, 23);
  const auto queries = data::random_int_vectors(6, 8, 4, 24);

  EngineIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const auto core_hits = index.engine().search_hits_at(q, 5, i);
    const auto response = index.search(req(q, 5));
    ASSERT_EQ(response.hits.size(), 5u);
    for (std::size_t j = 0; j < core_hits.size(); ++j) {
      expect_hit_matches(response.hits[j], core_hits[j]);
    }
    // Hit detail is self-consistent: nominal distance of each hit
    // matches the engine's reference for that row.
    for (const auto& hit : response.hits) {
      EXPECT_EQ(hit.nominal_distance,
                index.engine().nominal_distance(q, hit.global_row));
    }
  }
}

TEST_P(ServeParityT, EngineIndexBatchMatchesCore) {
  const auto [metric, fidelity] = GetParam();
  core::FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(24, 8, 4, 25);
  const auto queries = data::random_int_vectors(9, 8, 4, 26);

  EngineIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  std::vector<SearchRequest> requests;
  for (const auto& q : queries) requests.push_back(req(q));
  const auto responses = index.search_batch(requests);
  ASSERT_EQ(responses.size(), queries.size());
  for (std::uint64_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].hits.size(), 1u);
    expect_hit_matches(responses[i].best(),
                       index.engine().search_hits_at(queries[i], 1, i).front());
  }
  EXPECT_EQ(index.query_serial(), queries.size());
}

TEST_P(ServeParityT, BankedIndexSearchMatchesCoreBitExactly) {
  const auto [metric, fidelity] = GetParam();
  arch::BankedOptions opt;
  opt.bank_rows = 7;
  opt.engine.fidelity = fidelity;
  const auto db = data::random_int_vectors(25, 8, 4, 27);
  const auto queries = data::random_int_vectors(10, 8, 4, 28);

  BankedIndex index(opt);
  index.configure(metric, 2);
  index.store(db);
  EXPECT_EQ(index.bank_count(), 4u);

  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    const auto response = index.search(req(queries[i]));
    ASSERT_EQ(response.hits.size(), 1u);
    expect_hit_matches(response.best(),
                       index.banked().search_at(queries[i], i));
  }
}

TEST_P(ServeParityT, BankedIndexTopKMatchesCore) {
  const auto [metric, fidelity] = GetParam();
  arch::BankedOptions opt;
  opt.bank_rows = 6;
  opt.engine.fidelity = fidelity;
  const auto db = data::random_int_vectors(20, 8, 4, 29);
  const auto queries = data::random_int_vectors(6, 8, 4, 30);

  BankedIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  for (const auto& q : queries) {
    const auto core_hits = index.banked().search_k_hits(q, 7);
    const auto response = index.search(req(q, 7));
    ASSERT_EQ(response.hits.size(), 7u);
    for (std::size_t i = 0; i < core_hits.size(); ++i) {
      expect_hit_matches(response.hits[i], core_hits[i]);
      // The bank coordinate points at the bank that owns the row.
      EXPECT_EQ(response.hits[i].bank,
                response.hits[i].global_row / opt.bank_rows);
    }
  }
}

TEST_P(ServeParityT, BankedIndexBatchMatchesCore) {
  const auto [metric, fidelity] = GetParam();
  arch::BankedOptions opt;
  opt.bank_rows = 9;
  opt.engine.fidelity = fidelity;
  const auto db = data::random_int_vectors(22, 8, 4, 31);
  const auto queries = data::random_int_vectors(8, 8, 4, 32);

  BankedIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  std::vector<SearchRequest> requests;
  for (const auto& q : queries) requests.push_back(req(q));
  const auto responses = index.search_batch(requests);
  ASSERT_EQ(responses.size(), queries.size());
  for (std::uint64_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].hits.size(), 1u);
    expect_hit_matches(responses[i].best(),
                       index.banked().search_at(queries[i], i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndFidelities, ServeParityT,
    ::testing::Combine(::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)));

TEST(ServeT, ConstIndexServesOrdinalAddressedRequests) {
  core::FerexOptions opt;
  const auto db = data::random_int_vectors(16, 6, 4, 33);
  const auto q = data::random_int_vectors(1, 6, 4, 34).front();

  EngineIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  // Driving through a const AmIndex& — the whole point of the const
  // ordinal-addressed core.
  const AmIndex& const_index = index;
  const auto a = const_index.search_at(req(q, 3), 5);
  const auto b = const_index.search_at(req(q, 3), 5);
  ASSERT_EQ(a.hits.size(), 3u);
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
  }
  // search_at consumes nothing.
  EXPECT_EQ(index.query_serial(), 0u);

  // A pinned request ordinal replays the same noise stream as the
  // mutable path at that ordinal, and does not advance the serial.
  const auto mutable_result = index.search(req(q));  // ordinal 0
  const auto replay = index.search(req_at(q, 0));
  EXPECT_EQ(replay.best().global_row, mutable_result.best().global_row);
  EXPECT_EQ(replay.best().sensed_current_a,
            mutable_result.best().sensed_current_a);
  EXPECT_EQ(index.query_serial(), 1u);
}

TEST(ServeT, FrontDoorAndEngineCoreInterleave) {
  // The index and its engine core agree at every ordinal even when
  // requests interleave k = 1 and k-NN searches: each request consumes
  // the next ordinal whatever its k.
  core::FerexOptions opt;
  const auto db = data::random_int_vectors(16, 6, 4, 35);
  const auto queries = data::random_int_vectors(6, 6, 4, 36);

  EngineIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    const std::size_t k = i % 2 == 0 ? 1 : 4;
    const auto response = index.search(req(queries[i], k));
    const auto core_hits = index.engine().search_hits_at(queries[i], k, i);
    ASSERT_EQ(response.hits.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      expect_hit_matches(response.hits[j], core_hits[j]);
    }
  }
}

TEST(ServeT, PolymorphicBackendsShareOneSurface) {
  const auto db = data::random_int_vectors(18, 6, 4, 37);
  const auto q = data::random_int_vectors(1, 6, 4, 38).front();

  arch::BankedOptions banked_opt;
  banked_opt.bank_rows = 5;
  std::vector<std::unique_ptr<AmIndex>> indexes;
  indexes.push_back(std::make_unique<EngineIndex>());
  indexes.push_back(std::make_unique<BankedIndex>(banked_opt));

  for (auto& index : indexes) {
    index->configure(DistanceMetric::kHamming, 2);
    index->store(db);
    const auto response = index->search(req(q, 3));
    ASSERT_EQ(response.hits.size(), 3u);
    // Nearest-first ordering by nominal distance (no ties broken out of
    // order at either backend for this data).
    EXPECT_LE(response.hits[0].nominal_distance,
              response.hits[1].nominal_distance);
    EXPECT_LE(response.hits[1].nominal_distance,
              response.hits[2].nominal_distance);
    const auto receipt = index->insert(db.front());
    EXPECT_EQ(receipt.global_row, db.size());
    EXPECT_GT(receipt.cost.pulses, 0u);
    EXPECT_EQ(index->stored_count(), db.size() + 1);
    // The inserted duplicate of row 0 is immediately searchable.
    std::vector<int> exact(db.front());
    const auto after = index->search(req(exact));
    EXPECT_EQ(after.best().nominal_distance, 0);
  }
}

TEST(ServeT, BankedMarginIsGapBetweenTwoBestBankWinners) {
  arch::BankedOptions opt;
  opt.bank_rows = 5;
  // Deterministic settings so the margin arithmetic is exact.
  opt.engine.circuit.variation.enabled = false;
  opt.engine.lta.offset_sigma_rel = 0.0;
  const auto db = data::random_int_vectors(15, 6, 4, 39);
  const auto q = data::random_int_vectors(1, 6, 4, 40).front();

  BankedIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  const auto response = index.search_at(req(q), 0);
  // Reconstruct the per-bank winners through the engine's search core.
  std::vector<double> winner_currents;
  for (std::size_t start = 0; start < db.size(); start += opt.bank_rows) {
    core::FerexOptions engine_opt = opt.engine;
    engine_opt.seed = opt.engine.seed + 0x9e37 * (start + 1);
    core::FerexEngine bank(engine_opt);
    bank.configure(DistanceMetric::kHamming, 2);
    bank.store({db.begin() + start,
                db.begin() + std::min(start + opt.bank_rows, db.size())});
    winner_currents.push_back(
        bank.search_hits_at(q, 1, 0).front().sensed_current_a);
  }
  std::sort(winner_currents.begin(), winner_currents.end());
  EXPECT_EQ(response.best().sensed_current_a, winner_currents[0]);
  EXPECT_EQ(response.best().margin_a,
            winner_currents[1] - winner_currents[0]);
}

TEST(ServeT, RejectsMalformedRequestsBeforeConsumingOrdinals) {
  const auto db = data::random_int_vectors(10, 6, 4, 41);
  EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  std::vector<int> good(6, 1);
  std::vector<int> short_q(5, 1);
  std::vector<int> bad_value(6, 1);
  bad_value[3] = 99;

  EXPECT_THROW(index.search(req(short_q)), std::invalid_argument);
  EXPECT_THROW(index.search(req(bad_value)), std::out_of_range);
  EXPECT_THROW(index.search(req(good, 0)), std::invalid_argument);
  EXPECT_THROW(index.search(req(good, 11)), std::invalid_argument);
  std::vector<SearchRequest> mixed;
  mixed.push_back(req(good));
  mixed.push_back(req(bad_value));
  EXPECT_THROW(index.search_batch(mixed), std::out_of_range);
  // None of the rejected requests consumed an ordinal...
  EXPECT_EQ(index.query_serial(), 0u);
  // ...so the next accepted search matches a fresh index's first one.
  EngineIndex fresh;
  fresh.configure(DistanceMetric::kHamming, 2);
  fresh.store(db);
  EXPECT_EQ(index.search(req(good)).best().sensed_current_a,
            fresh.search(req(good)).best().sensed_current_a);
}

TEST(ServeT, EmptyBatchIsANoOp) {
  EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(4, 4, 4, 42));
  EXPECT_TRUE(index.search_batch({}).empty());
  EXPECT_EQ(index.query_serial(), 0u);
}

TEST(ServeT, CompositeCodecServesThroughTheSameSurface) {
  core::FerexOptions opt;
  const auto db = data::random_int_vectors(12, 5, 16, 43);
  const auto queries = data::random_int_vectors(5, 5, 16, 44);

  EngineIndex index(opt);
  index.configure_composite(DistanceMetric::kHamming, 4);
  index.store(db);

  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    expect_hit_matches(index.search(req(queries[i])).best(),
                       index.engine().search_hits_at(queries[i], 1, i).front());
  }
}

}  // namespace
}  // namespace ferex::serve
