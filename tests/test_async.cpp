// Tests for the AsyncAmIndex front door: coalesced async serving must
// be bit-identical to the synchronous path (ordinals pinned at submit),
// and the queue's lifecycle edges — admission rejection, shutdown
// draining, post-shutdown rejection, backend exceptions through the
// future — must all be deterministic and leak-free.
//
// Real-backend suites run against EngineIndex and BankedIndex at both
// fidelities; lifecycle edges use the gated stub backend of
// gated_index.hpp, so "dispatcher is busy" and "queue is full" are states
// the test controls, not races it hopes for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/datasets.hpp"
#include "gated_index.hpp"
#include "serve/async_index.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"

namespace ferex::serve {
namespace {

using csp::DistanceMetric;
using core::SearchFidelity;

SearchRequest req(std::vector<int> query, std::size_t k = 1) {
  SearchRequest r;
  r.query = std::move(query);
  r.k = k;
  return r;
}

void expect_bit_identical(const SearchResponse& a, const SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].bank, b.hits[i].bank);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

// ------------------------------------------------------------ parity --

enum class Backend { kEngine, kBanked };

class AsyncParityT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {
 protected:
  static constexpr std::size_t kRows = 24, kDims = 8, kAlphabet = 4;

  std::unique_ptr<AmIndex> make_index() const {
    const auto [backend, fidelity] = GetParam();
    const auto db = data::random_int_vectors(kRows, kDims, kAlphabet, 31);
    std::unique_ptr<AmIndex> index;
    if (backend == Backend::kEngine) {
      core::FerexOptions opt;
      opt.fidelity = fidelity;
      index = std::make_unique<EngineIndex>(opt);
    } else {
      arch::BankedOptions opt;
      opt.bank_rows = 8;  // three banks
      opt.engine.fidelity = fidelity;
      index = std::make_unique<BankedIndex>(opt);
    }
    index->configure(DistanceMetric::kHamming, 2);
    index->store(db);
    return index;
  }
};

TEST_P(AsyncParityT, CoalescedResultsBitIdenticalToSynchronousSearch) {
  auto sync_index = make_index();
  auto async_backend = make_index();
  const auto queries = data::random_int_vectors(32, kDims, kAlphabet, 32);

  // Coalescing-friendly options: a generous linger and batch cap so the
  // dispatcher fuses as much as it can. Whatever batches actually form,
  // results must match the synchronous index serving the same requests
  // in submission order.
  AsyncOptions options;
  options.max_batch = 8;
  options.max_wait_us = 2000;
  options.queue_depth = 64;
  AsyncAmIndex async_index(*async_backend, options);

  std::vector<std::future<SearchResponse>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) {
    futures.push_back(async_index.submit(req(q, 3)));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto async_response = futures[i].get();
    const auto sync_response = sync_index->search(req(queries[i], 3));
    expect_bit_identical(async_response, sync_response);
  }
  EXPECT_EQ(async_index.query_serial(), queries.size());
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.submitted, queries.size());
  EXPECT_EQ(stats.search.served, queries.size());
  EXPECT_EQ(stats.search.queue_wait_us.count, queries.size());
  EXPECT_EQ(stats.search.end_to_end_us.count, queries.size());
}

TEST_P(AsyncParityT, SubmitBatchBitIdenticalToSynchronousBatch) {
  auto sync_index = make_index();
  auto async_backend = make_index();
  const auto queries = data::random_int_vectors(16, kDims, kAlphabet, 33);

  std::vector<SearchRequest> requests;
  for (const auto& q : queries) requests.push_back(req(q, 2));

  AsyncAmIndex async_index(*async_backend);
  auto futures = async_index.submit_batch(requests);
  const auto sync_responses = sync_index->search_batch(requests);
  ASSERT_EQ(futures.size(), sync_responses.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bit_identical(futures[i].get(), sync_responses[i]);
  }
}

TEST_P(AsyncParityT, PinnedOrdinalReplayMatchesConstSearchAt) {
  auto index = make_index();
  const auto queries = data::random_int_vectors(6, kDims, kAlphabet, 34);

  std::vector<SearchResponse> async_responses;
  {
    AsyncAmIndex async_index(*index);
    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto request = req(queries[i]);
      request.ordinal = 1000 + i;  // pinned: must not consume the serial
      futures.push_back(async_index.submit(std::move(request)));
    }
    for (auto& future : futures) async_responses.push_back(future.get());
    EXPECT_EQ(async_index.query_serial(), 0u);
  }
  // Replay after shutdown — while the wrapper owns the index, even the
  // const search_at is guarded (queued writes could race it).
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_bit_identical(async_responses[i],
                         index->search_at(req(queries[i]), 1000 + i));
  }
}

TEST_P(AsyncParityT, SerialHandoffContinuesStreamAcrossSessions) {
  auto sync_index = make_index();
  auto async_backend = make_index();
  const auto queries = data::random_int_vectors(10, kDims, kAlphabet, 35);

  // Synchronous traffic before the async session consumes ordinal 0 on
  // both twins.
  expect_bit_identical(async_backend->search(req(queries[0])),
                       sync_index->search(req(queries[0])));
  {
    AsyncAmIndex async_index(*async_backend);
    EXPECT_EQ(async_index.query_serial(), 1u);  // seeded, not reset
    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 1; i + 1 < queries.size(); ++i) {
      futures.push_back(async_index.submit(req(queries[i])));
    }
    for (std::size_t i = 1; i + 1 < queries.size(); ++i) {
      expect_bit_identical(futures[i - 1].get(),
                           sync_index->search(req(queries[i])));
    }
  }  // destructor hands the advanced serial back to the backend
  EXPECT_EQ(async_backend->query_serial(), queries.size() - 1);
  // Synchronous traffic after the session continues the same stream.
  expect_bit_identical(async_backend->search(req(queries.back())),
                       sync_index->search(req(queries.back())));
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndFidelities, AsyncParityT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      const Backend backend = std::get<0>(info.param);
      const SearchFidelity fidelity = std::get<1>(info.param);
      return std::string(backend == Backend::kEngine ? "Engine" : "Banked") +
             (fidelity == SearchFidelity::kCircuit ? "Circuit" : "Nominal");
    });

// --------------------------------------------------------- lifecycle --

AsyncOptions immediate_options(std::size_t queue_depth,
                               std::size_t max_batch = 8) {
  AsyncOptions options;
  options.queue_depth = queue_depth;
  options.max_batch = max_batch;
  options.max_wait_us = 0;  // no linger: dispatch whatever is queued
  return options;
}

TEST(AsyncLifecycleT, AdmissionControlRejectsWhenQueueIsFull) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend, immediate_options(/*queue_depth=*/2,
                                                      /*max_batch=*/1));
  // First request occupies the dispatcher inside the gate; the queue
  // behind it is now empty and bounded at 2.
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  auto queued_a = async_index.submit(req({0, 1}));
  auto queued_b = async_index.submit(req({0, 1}));
  EXPECT_THROW(async_index.submit(req({0, 1})), Overloaded);
  // The rejected submission consumed nothing: exactly three ordinals.
  EXPECT_EQ(async_index.query_serial(), 3u);

  backend.open_gate();
  EXPECT_EQ(blocked.get().hits.front().sensed_current_a, 0.0);
  EXPECT_EQ(queued_a.get().hits.front().sensed_current_a, 1.0);
  EXPECT_EQ(queued_b.get().hits.front().sensed_current_a, 2.0);

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.submitted, 3u);
  EXPECT_EQ(stats.search.rejected_overload, 1u);
  EXPECT_EQ(stats.search.served, 3u);
}

TEST(AsyncLifecycleT, SubmitBatchAdmissionIsAllOrNothing) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend, immediate_options(/*queue_depth=*/2));
  // Dispatcher busy on one request; room for exactly 2 behind it.
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);

  const std::vector<SearchRequest> three(3, req({0, 1}));
  EXPECT_THROW((void)async_index.submit_batch(three), Overloaded);
  EXPECT_EQ(async_index.query_serial(), 1u);  // nothing consumed

  const std::vector<SearchRequest> two(2, req({0, 1}));
  auto futures = async_index.submit_batch(two);
  EXPECT_EQ(async_index.query_serial(), 3u);

  backend.open_gate();
  EXPECT_EQ(futures[0].get().hits.front().sensed_current_a, 1.0);
  EXPECT_EQ(futures[1].get().hits.front().sensed_current_a, 2.0);
  (void)blocked.get();
}

TEST(AsyncLifecycleT, ShutdownDrainsInFlightRequests) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend, immediate_options(/*queue_depth=*/8,
                                                      /*max_batch=*/1));
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  auto queued_a = async_index.submit(req({0, 1}));
  auto queued_b = async_index.submit(req({0, 1}));

  backend.open_gate();
  async_index.shutdown();  // must drain: all three futures complete

  EXPECT_TRUE(async_index.shut_down());
  EXPECT_EQ(blocked.get().hits.front().sensed_current_a, 0.0);
  EXPECT_EQ(queued_a.get().hits.front().sensed_current_a, 1.0);
  EXPECT_EQ(queued_b.get().hits.front().sensed_current_a, 2.0);
  EXPECT_EQ(async_index.stats().search.served, 3u);
}

TEST(AsyncLifecycleT, DestructorDrainsLikeShutdown) {
  GatedIndex backend;
  std::future<SearchResponse> future;
  {
    AsyncAmIndex async_index(backend, immediate_options(8));
    future = async_index.submit(req({0, 1}));
  }  // destructor: shutdown + drain
  EXPECT_EQ(future.get().hits.size(), 1u);
}

TEST(AsyncLifecycleT, SubmissionsAfterShutdownAreRejected) {
  GatedIndex backend;
  AsyncAmIndex async_index(backend, immediate_options(8));
  async_index.shutdown();
  EXPECT_THROW((void)async_index.submit(req({0, 1})), ShutDown);
  const std::vector<SearchRequest> batch(2, req({0, 1}));
  EXPECT_THROW((void)async_index.submit_batch(batch), ShutDown);
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.rejected_shutdown, 3u);
  EXPECT_EQ(stats.search.submitted, 0u);
  // shutdown() is idempotent.
  async_index.shutdown();
}

TEST(AsyncLifecycleT, BackendExceptionPropagatesThroughTheFuture) {
  GatedIndex backend;
  backend.throw_on_search = true;
  AsyncAmIndex async_index(backend, immediate_options(8));
  auto failing = async_index.submit(req({0, 1}));
  EXPECT_THROW(
      {
        try {
          (void)failing.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "GatedIndex: injected backend failure");
          throw;
        }
      },
      std::runtime_error);

  // The dispatcher survives the exception: later submissions serve fine.
  backend.throw_on_search = false;
  auto ok = async_index.submit(req({0, 1}));
  EXPECT_EQ(ok.get().hits.size(), 1u);
  EXPECT_EQ(async_index.stats().search.served, 2u);
}

TEST(AsyncLifecycleT, MalformedRequestsRejectedAtSubmitConsumeNothing) {
  GatedIndex backend;
  AsyncAmIndex async_index(backend, immediate_options(8));
  EXPECT_THROW((void)async_index.submit(req({0, 1, 2})),
               std::invalid_argument);  // wrong length
  EXPECT_THROW((void)async_index.submit(req({0, 1}, /*k=*/99)),
               std::invalid_argument);  // k > stored_count
  EXPECT_EQ(async_index.query_serial(), 0u);
  EXPECT_EQ(async_index.stats().search.submitted, 0u);
}

TEST(AsyncLifecycleT, DispatcherCoalescesQueuedSinglesIntoOneBatch) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend, immediate_options(/*queue_depth=*/8,
                                                      /*max_batch=*/8));
  // First request is popped alone (nothing else queued, no linger) and
  // blocks in the backend; the next four pile up behind it.
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  std::vector<std::future<SearchResponse>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(async_index.submit(req({0, 1})));

  backend.open_gate();
  (void)blocked.get();
  for (auto& future : queued) (void)future.get();

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.served, 5u);
  EXPECT_EQ(stats.batches, 2u);     // {first}, {the four coalesced}
  EXPECT_EQ(stats.max_batch, 4u);   // all four fused into one call
  EXPECT_EQ(stats.search.queue_wait_us.count, 5u);
  const auto& e2e = stats.search.end_to_end_us;
  EXPECT_EQ(e2e.count, 5u);
  EXPECT_LE(e2e.p50_us, e2e.p95_us);
  EXPECT_LE(e2e.p95_us, e2e.p99_us);
  EXPECT_LE(e2e.p99_us, e2e.max_us);
}

TEST(AsyncLifecycleT, ConcurrentSubmittersAllComplete) {
  GatedIndex backend;
  AsyncAmIndex async_index(backend,
                           immediate_options(/*queue_depth=*/256,
                                             /*max_batch=*/16));
  constexpr std::size_t kThreads = 4, kPerThread = 32;
  std::vector<std::thread> submitters;
  std::mutex futures_mutex;
  std::vector<std::future<SearchResponse>> futures;
  std::atomic<std::size_t> overloaded{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        try {
          auto future = async_index.submit(req({0, 1}));
          std::lock_guard<std::mutex> lock(futures_mutex);
          futures.push_back(std::move(future));
        } catch (const Overloaded&) {
          overloaded.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().hits.size(), 1u);
  }
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.submitted, futures.size());
  EXPECT_EQ(stats.search.submitted + overloaded.load(), kThreads * kPerThread);
  EXPECT_EQ(async_index.query_serial(), futures.size());
}

}  // namespace
}  // namespace ferex::serve
