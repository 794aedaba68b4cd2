// Tests for the batched multi-threaded search path: AmIndex::search_batch
// over both backends (EngineIndex, BankedIndex) must be bit-identical to
// sequential search() calls across metrics, fidelities, k and encoding
// paths, and must reject malformed batches before consuming an ordinal.
// Banked and sharded indexes above the work-size gate must give the same
// bits whether a search fans its banks or shards, sits inside a fan-out
// across requests, or pins its bank or shard loop serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/datasets.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "serve/sharded_index.hpp"
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
}

// -- Nested fan-outs above the work-size gate ---------------------------
//
// Every bank and shard below holds more than core::kIntraQueryMinDevices
// devices, so it fans its rows when searched alone. search_at fans the
// banks or shards and runs each row loop inline beneath them; a batch
// fans its requests and runs everything beneath inline (util::parallel's
// nesting rule); the serial cores pinned with `false` fan the rows of
// one bank or shard at a time. No schedule may change a bit.

constexpr std::size_t kWideRows = 192;  // x 64 dims x 3 FeFETs = 36,864
constexpr std::size_t kWideDims = 64;

/// Serves the same pinned-ordinal requests at k = 1 and k = 5 three ways
/// and expects one answer: a batch of at least pool_width() requests,
/// batches of 2, and search_at one by one. `check_serial` then compares
/// that answer with the backend's serial cores.
void expect_schedules_agree(
    AmIndex& index,
    const std::function<void(const SearchRequest&, const SearchResponse&)>&
        check_serial) {
  const std::size_t n = std::max<std::size_t>(util::pool_width(), 4);
  const auto queries = data::random_int_vectors(n, kWideDims, 4, 802);
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
    std::vector<SearchRequest> requests;
    for (std::size_t i = 0; i < n; ++i) {
      requests.emplace_back(queries[i], k, 7000 + i);
    }
    const auto wide = index.search_batch(requests);
    std::vector<SearchResponse> pairs;
    for (std::size_t i = 0; i < n; i += 2) {
      const auto pair = index.search_batch(
          std::span(requests).subspan(i, std::min<std::size_t>(2, n - i)));
      pairs.insert(pairs.end(), pair.begin(), pair.end());
    }
    ASSERT_EQ(wide.size(), n);
    ASSERT_EQ(pairs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(testing::Message() << "k " << k << " request " << i);
      const auto alone = index.search_at(requests[i], *requests[i].ordinal);
      ASSERT_EQ(alone.hits.size(), k);
      expect_identical(wide[i], alone);
      expect_identical(pairs[i], alone);
      check_serial(requests[i], alone);
    }
  }
}

TEST(NestedFanOutT, BankedIndexAboveTheGateIsScheduleInvariant) {
  arch::BankedOptions opt;  // circuit fidelity
  opt.bank_rows = kWideRows;
  BankedIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(4 * kWideRows, kWideDims, 4, 801));
  const arch::BankedAm& banked = index.banked();
  ASSERT_EQ(banked.bank_count(), 4u);
  for (std::size_t b = 0; b < banked.bank_count(); ++b) {
    ASSERT_GE(banked.bank(b).array()->device_count(),
              core::kIntraQueryMinDevices);
  }
  expect_schedules_agree(index, [&](const SearchRequest& request,
                                    const SearchResponse& response) {
    // The k-NN core with its bank loop pinned serial; the k = 1 path
    // has no pinned form.
    if (request.k == 1) return;
    const auto serial = banked.search_k_hits(request.query, request.k, false);
    ASSERT_EQ(serial.size(), response.hits.size());
    for (std::size_t j = 0; j < serial.size(); ++j) {
      EXPECT_EQ(response.hits[j].global_row, serial[j].global_row);
      EXPECT_EQ(response.hits[j].bank, serial[j].bank);
      EXPECT_EQ(response.hits[j].sensed_current_a, serial[j].sensed_current_a);
      EXPECT_EQ(response.hits[j].margin_a, serial[j].margin_a);
      EXPECT_EQ(response.hits[j].nominal_distance, serial[j].nominal_distance);
    }
  });
}

TEST(NestedFanOutT, ShardedFleetAboveTheGateIsScheduleInvariant) {
  ShardedOptions opt;  // engine shards, circuit fidelity
  opt.shards = 2;
  opt.shard_block = kWideRows;
  ShardedIndex fleet(opt);
  fleet.configure(DistanceMetric::kHamming, 2);
  fleet.store(data::random_int_vectors(2 * kWideRows, kWideDims, 4, 803));
  const auto engine = [&](std::size_t s) -> const core::FerexEngine& {
    return dynamic_cast<const EngineIndex&>(fleet.shard(s)).engine();
  };
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    ASSERT_GE(engine(s).array()->device_count(), core::kIntraQueryMinDevices);
  }
  expect_schedules_agree(fleet, [&](const SearchRequest& request,
                                    const SearchResponse& response) {
    // The fleet's hits from each shard are that shard's hits with its row
    // loop pinned serial, in order, at the fleet's ordinal (each shard
    // overfetches one at k > 1; the merge sets the margins).
    const std::size_t sub_k = request.k == 1 ? 1 : request.k + 1;
    std::vector<std::vector<core::Hit>> serial;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      serial.push_back(engine(s).search_hits_at(request.query, sub_k,
                                                *request.ordinal, false));
    }
    std::vector<std::size_t> taken(fleet.shard_count(), 0);
    for (const auto& hit : response.hits) {
      ASSERT_LT(hit.bank, serial.size());
      ASSERT_LT(taken[hit.bank], serial[hit.bank].size());
      const auto& r = serial[hit.bank][taken[hit.bank]++];
      EXPECT_EQ(hit.global_row, fleet.to_global(hit.bank, r.global_row));
      EXPECT_EQ(hit.sensed_current_a, r.sensed_current_a);
      EXPECT_EQ(hit.nominal_distance, r.nominal_distance);
    }
  });
}

}  // namespace
}  // namespace ferex::serve
