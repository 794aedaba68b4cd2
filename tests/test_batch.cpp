// Tests for the batched multi-threaded search path: AmIndex::search_batch
// over both backends (EngineIndex, BankedIndex) must be bit-identical to
// sequential search() calls across metrics, fidelities, k and encoding
// paths, and must reject malformed batches before consuming an ordinal.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "data/datasets.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/parallel.hpp"

namespace ferex::serve {
namespace {

using core::SearchFidelity;
using csp::DistanceMetric;

enum class Backend { kEngine, kBanked };

/// An index over `backend`; banked indexes split 24 rows into 4 banks.
std::unique_ptr<AmIndex> make_index(Backend backend,
                                    core::FerexOptions opt = {}) {
  if (backend == Backend::kEngine) return std::make_unique<EngineIndex>(opt);
  arch::BankedOptions banked;
  banked.bank_rows = 7;
  banked.engine = opt;
  return std::make_unique<BankedIndex>(banked);
}

std::unique_ptr<AmIndex> stored_index(
    Backend backend, DistanceMetric metric,
    const std::vector<std::vector<int>>& db, core::FerexOptions opt = {}) {
  auto index = make_index(backend, opt);
  index->configure(metric, 2);
  index->store(db);
  return index;
}

std::vector<SearchRequest> requests_for(
    const std::vector<std::vector<int>>& queries, std::size_t k = 1) {
  std::vector<SearchRequest> requests;
  for (const auto& q : queries) requests.emplace_back(q, k);
  return requests;
}

void expect_identical(const SearchResponse& a, const SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].bank, b.hits[i].bank);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);  // bit-exact
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

class BatchIdenticalT
    : public ::testing::TestWithParam<
          std::tuple<Backend, DistanceMetric, SearchFidelity>> {};

TEST_P(BatchIdenticalT, BatchMatchesSequentialBitExactly) {
  const auto [backend, metric, fidelity] = GetParam();
  core::FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(24, 8, 4, 11);
  const auto queries = data::random_int_vectors(17, 8, 4, 12);
  // Mixed k: k = 1 and the k-NN path share one batch.
  auto requests = requests_for(queries);
  for (std::size_t i = 1; i < requests.size(); i += 2) requests[i].k = 3;

  auto batched = stored_index(backend, metric, db, opt);
  const auto batch = batched->search_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  // A batch consumes one ordinal per request, so a search after it
  // continues the sequence where the sequential index stands.
  const auto after = batched->search(requests.front());

  auto sequential = stored_index(backend, metric, db, opt);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(batch[i], sequential->search(requests[i]));
  }
  expect_identical(after, sequential->search(requests.front()));
  EXPECT_EQ(batched->query_serial(), sequential->query_serial());
}

INSTANTIATE_TEST_SUITE_P(
    BackendsMetricsAndFidelities, BatchIdenticalT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan,
                                         DistanceMetric::kEuclideanSquared),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)));

class BatchT : public ::testing::TestWithParam<Backend> {};

TEST_P(BatchT, EmptyBatchReturnsEmpty) {
  auto unstored = make_index(GetParam());
  EXPECT_TRUE(unstored->search_batch({}).empty());
  auto index = stored_index(GetParam(), DistanceMetric::kHamming,
                            data::random_int_vectors(8, 4, 4, 31));
  EXPECT_TRUE(index->search_batch({}).empty());
  EXPECT_EQ(index->query_serial(), 0u);  // consumed no ordinals
}

TEST_P(BatchT, SingleElementBatchMatchesSearch) {
  const auto db = data::random_int_vectors(12, 5, 4, 41);
  const auto requests = requests_for({db[7]});

  auto batched = stored_index(GetParam(), DistanceMetric::kManhattan, db);
  const auto batch = batched->search_batch(requests);
  ASSERT_EQ(batch.size(), 1u);

  auto sequential = stored_index(GetParam(), DistanceMetric::kManhattan, db);
  expect_identical(batch[0], sequential->search(requests[0]));
  EXPECT_EQ(batch[0].best().nominal_distance, 0);
}

TEST_P(BatchT, UnstoredIndexRejectsWithEmptyIndex) {
  auto index = make_index(GetParam());
  EXPECT_THROW(index->search_batch(requests_for({{0, 1}})), EmptyIndex);
  index->configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(index->search_batch(requests_for({{0, 1}})), EmptyIndex);
}

TEST_P(BatchT, RejectsWrongQueryLength) {
  const auto db = data::random_int_vectors(8, 4, 4, 95);
  auto index = stored_index(GetParam(), DistanceMetric::kHamming, db);
  const auto bad = requests_for({{0, 1, 2}});  // dims is 4
  EXPECT_THROW(index->search_batch(bad), std::invalid_argument);
  EXPECT_THROW(index->search(bad[0]), std::invalid_argument);
  // A bad request anywhere in the batch rejects the whole batch.
  auto mixed = requests_for(data::random_int_vectors(2, 4, 4, 96));
  mixed.push_back(bad[0]);
  EXPECT_THROW(index->search_batch(mixed), std::invalid_argument);
  // Rejected requests never consume noise-stream ordinals, so the next
  // accepted ones match a fresh index's first ones.
  EXPECT_EQ(index->query_serial(), 0u);
  auto reference = stored_index(GetParam(), DistanceMetric::kHamming, db);
  for (const auto& request : mixed) {
    if (request.query.size() != 4) continue;
    expect_identical(index->search(request), reference->search(request));
  }
}

TEST_P(BatchT, RejectsOutOfRangeValuesAtBothFidelities) {
  for (const auto fidelity :
       {SearchFidelity::kCircuit, SearchFidelity::kNominal}) {
    core::FerexOptions opt;
    opt.fidelity = fidelity;
    auto index = stored_index(GetParam(), DistanceMetric::kHamming,
                              data::random_int_vectors(6, 4, 4, 53), opt);
    const auto bad = requests_for({{0, 1, 2, 7}, {0, 1, 2, -1}});  // 0..3
    EXPECT_THROW(index->search_batch(bad), std::out_of_range);
    EXPECT_THROW(index->search(bad[0]), std::out_of_range);
    EXPECT_THROW(index->search(bad[1]), std::out_of_range);
    EXPECT_EQ(index->query_serial(), 0u);
  }
}

TEST_P(BatchT, RepeatedBatchesAreDeterministicAcrossIndexes) {
  const auto db = data::random_int_vectors(18, 7, 4, 71);
  const auto requests =
      requests_for(data::random_int_vectors(32, 7, 4, 72));
  std::vector<std::vector<SearchResponse>> runs;
  for (int run = 0; run < 2; ++run) {
    runs.push_back(stored_index(GetParam(), DistanceMetric::kManhattan, db)
                       ->search_batch(requests));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(runs[0][i], runs[1][i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchT,
                         ::testing::Values(Backend::kEngine,
                                           Backend::kBanked));

// Composite encodings are engine-only (the banked layer configures
// per-bank monolithic encodings).
std::unique_ptr<EngineIndex> composite_index(
    const std::vector<std::vector<int>>& db, core::FerexOptions opt = {}) {
  auto index = std::make_unique<EngineIndex>(opt);
  index->configure_composite(DistanceMetric::kHamming, 4);
  index->store(db);
  return index;
}

TEST(EngineBatchT, CompositeEncodingMatchesSequential) {
  const auto db = data::random_int_vectors(16, 6, 16, 21);
  const auto requests = requests_for(data::random_int_vectors(9, 6, 16, 22));
  const auto batch = composite_index(db)->search_batch(requests);
  auto sequential = composite_index(db);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(batch[i], sequential->search(requests[i]));
  }
}

TEST(EngineBatchT, RejectsOutOfRangeValuesUnderCodec) {
  auto index = composite_index(data::random_int_vectors(6, 4, 16, 54));
  const auto bad = requests_for({{0, 1, 2, 16}});  // 16 > 15
  EXPECT_THROW(index->search_batch(bad), std::out_of_range);
  EXPECT_THROW(index->search(bad[0]), std::out_of_range);
  EXPECT_EQ(index->query_serial(), 0u);
}

TEST(EngineBatchT, RejectsWrongQueryLengthUnderCodecAtNominalFidelity) {
  // Regression: the codec expands element-wise with no length check, and
  // the nominal path used to read past the end of a short expanded query.
  core::FerexOptions opt;
  opt.fidelity = SearchFidelity::kNominal;
  auto index = composite_index(data::random_int_vectors(6, 4, 16, 52), opt);
  const auto bad = requests_for({{0, 1, 2}});  // dims is 4
  EXPECT_THROW(index->search_batch(bad), std::invalid_argument);
  EXPECT_THROW(index->search(bad[0]), std::invalid_argument);
}

TEST(EngineBatchT, TopKLeadsWithTheBatchWinner) {
  // The engine's k-NN and single-NN searches draw the same per-query
  // noise stream, so at matching ordinals the first of k hits is the
  // batch winner. (The banked k-NN path is a different, noiseless
  // circuit, so this holds for the engine only.)
  const auto db = data::random_int_vectors(20, 6, 4, 61);
  const auto queries = data::random_int_vectors(8, 6, 4, 62);
  auto batched = stored_index(Backend::kEngine, DistanceMetric::kHamming, db);
  const auto batch = batched->search_batch(requests_for(queries));
  auto sequential =
      stored_index(Backend::kEngine, DistanceMetric::kHamming, db);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto top3 = sequential->search({queries[i], 3});
    ASSERT_EQ(top3.hits.size(), 3u);
    EXPECT_EQ(top3.best().global_row, batch[i].best().global_row);
    EXPECT_EQ(top3.best().sensed_current_a, batch[i].best().sensed_current_a);
  }
}

TEST(ParallelForT, CoversAllIndicesAndPropagatesExceptions) {
  std::vector<int> hits(257, 0);
  util::parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(util::parallel_for(
                   8, [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_GE(util::worker_count(1), 1u);
  EXPECT_EQ(util::worker_count(0), 1u);
}

}  // namespace
}  // namespace ferex::serve
