// Tests for the v2 admission control: deadline shedding at submit (the
// queue-wait estimate) and at dispatch (the measured wait), class
// priorities (search placement ahead of queued writes, bounded by
// max_writes_ahead), per-class ServeStats, the RejectedRequest taxonomy
// — and the contract that traffic with no deadline and FIFO placement
// is bit-identical to the synchronous path.
//
// Deterministic shedding uses the gated stub backend of gated_index.hpp
// (the test decides when the dispatcher is busy and how deep the queue
// is), whose log of backend calls makes priority placement observable.
// Parity and stats suites run against the real backends.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
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

SearchRequest deadline_req(std::vector<int> query, std::uint64_t deadline_us,
                           SubmitOptions::Priority priority =
                               SubmitOptions::Priority::kClassDefault) {
  SearchRequest r;
  r.query = std::move(query);
  r.submit.deadline_us = deadline_us;
  r.submit.priority = priority;
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

// ------------------------------------------------------------ fixture --

AsyncOptions immediate_options(std::size_t queue_depth,
                               std::size_t max_batch = 8) {
  AsyncOptions options;
  options.queue_depth = queue_depth;
  options.max_batch = max_batch;
  options.max_wait_us = 0;  // no linger: dispatch whatever is queued
  return options;
}

// ----------------------------------------------------------- taxonomy --

TEST(RejectTaxonomyT, EveryRejectionDerivesFromRejectedRequestWithReason) {
  EXPECT_EQ(Overloaded("x").reason(), RejectReason::kOverloaded);
  EXPECT_EQ(ShutDown("x").reason(), RejectReason::kShutDown);
  EXPECT_EQ(EmptyIndex("x").reason(), RejectReason::kEmptyIndex);
  EXPECT_EQ(MutationWhileServed("x").reason(),
            RejectReason::kMutationWhileServed);
  EXPECT_EQ(DeadlineExceeded("x").reason(), RejectReason::kDeadlineExceeded);
  EXPECT_STREQ(to_string(RejectReason::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(RejectReason::kShutDown), "shut_down");
  EXPECT_STREQ(to_string(RejectReason::kEmptyIndex), "empty_index");
  EXPECT_STREQ(to_string(RejectReason::kMutationWhileServed),
               "mutation_while_served");
  EXPECT_STREQ(to_string(RejectReason::kDeadlineExceeded),
               "deadline_exceeded");
  // One catch sheds on any reason — the load-generator contract.
  try {
    throw DeadlineExceeded("budget gone");
  } catch (const RejectedRequest& rejection) {
    EXPECT_EQ(rejection.reason(), RejectReason::kDeadlineExceeded);
    EXPECT_STREQ(rejection.what(), "budget gone");
  }
  // Rejections are runtime errors (the request failed), never logic
  // errors (the program is wrong) — EmptyIndex moved bases in v2.
  EXPECT_TRUE((std::is_base_of_v<std::runtime_error, RejectedRequest>));
}

TEST(RejectTaxonomyT, FrontDoorsThrowThroughTheCommonBase) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const std::vector<int> q(4, 0);
  try {
    (void)index.search(req(q));
    FAIL() << "empty index must reject";
  } catch (const RejectedRequest& rejection) {
    EXPECT_EQ(rejection.reason(), RejectReason::kEmptyIndex);
  }
  index.store(data::random_int_vectors(2, 4, 4, 950));
  {
    AsyncAmIndex async_index(index);
    try {
      index.insert(std::vector<int>(4, 1));
      FAIL() << "synchronous mutation while served must reject";
    } catch (const RejectedRequest& rejection) {
      EXPECT_EQ(rejection.reason(), RejectReason::kMutationWhileServed);
    }
    async_index.shutdown();
    try {
      (void)async_index.submit(req(q));
      FAIL() << "submit after shutdown must reject";
    } catch (const RejectedRequest& rejection) {
      EXPECT_EQ(rejection.reason(), RejectReason::kShutDown);
    }
  }
}

// ----------------------------------------------------- deadline sheds --

TEST(AdmissionDeadlineT, SubmitShedsWhenTheQueueWaitEstimateIsHopeless) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend,
                           immediate_options(/*queue_depth=*/16,
                                             /*max_batch=*/1));

  // Seed the live service-time EWMA: the first search is held in the
  // backend for at least 20 ms, so its measured service is at least
  // that.
  auto first = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  backend.open_gate();
  EXPECT_EQ(first.get().hits.front().sensed_current_a, 0.0);

  // The one dispatcher feeds the EWMA before it pops the next request,
  // so once a second search has entered the backend the estimate is
  // warm. The gate holds that search, and with it the dispatcher, while
  // four more queue.
  backend.close_gate();
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(2);
  std::vector<std::future<SearchResponse>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(async_index.submit(req({0, 1})));

  // Four queued searches x >= 20 ms each against a 1 us budget: shed at
  // submit, before an ordinal is consumed.
  EXPECT_THROW((void)async_index.submit(deadline_req({0, 1}, 1)),
               DeadlineExceeded);
  EXPECT_EQ(async_index.query_serial(), 6u);

  // A 10 s budget clears the same estimate and is admitted.
  auto admitted = async_index.submit(deadline_req({0, 1}, 10'000'000));

  backend.open_gate();
  EXPECT_EQ(blocked.get().hits.front().sensed_current_a, 1.0);
  for (auto& future : queued) (void)future.get();
  EXPECT_EQ(admitted.get().hits.front().sensed_current_a, 6.0);

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.shed_submit, 1u);
  EXPECT_EQ(stats.shed_dispatch, 0u);
  EXPECT_EQ(stats.search.shed_deadline, 1u);
  EXPECT_EQ(stats.search.submitted, 7u);  // the shed request never counted
  EXPECT_EQ(stats.search.served, 7u);
}

TEST(AdmissionDeadlineT, DispatchShedsARequestThatExpiredInTheQueue) {
  GatedIndex backend;
  backend.close_gate();
  auto options = immediate_options(/*queue_depth=*/8, /*max_batch=*/1);
  // Dispatch-only shedding: submit admits on any estimate, so the
  // expiry is decided by the measured queue wait alone.
  options.admission.shed = AdmissionPolicy::ShedPolicy::kDispatchOnly;
  AsyncAmIndex async_index(backend, options);

  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  auto doomed = async_index.submit(deadline_req({0, 1}, 2000));
  auto patient = async_index.submit(req({0, 1}));

  // Let the 2 ms budget expire while the dispatcher is held in the
  // gate, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  backend.open_gate();

  EXPECT_EQ(blocked.get().hits.front().sensed_current_a, 0.0);
  EXPECT_THROW((void)doomed.get(), DeadlineExceeded);
  EXPECT_EQ(patient.get().hits.front().sensed_current_a, 2.0);

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.shed_submit, 0u);
  EXPECT_EQ(stats.shed_dispatch, 1u);
  EXPECT_EQ(stats.search.shed_deadline, 1u);
  EXPECT_EQ(stats.search.submitted, 3u);  // admitted, then shed
  EXPECT_EQ(stats.search.served, 2u);     // sheds are not "served"
  // The shed request never reached the backend: its log holds exactly
  // the two served searches (ordinals 0 and 2).
  const auto log = backend.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], -1);  // ordinal 0
  EXPECT_EQ(log[1], -3);  // ordinal 2
}

// ---------------------------------------------------------- priority --

TEST(AdmissionPriorityT, UrgentSearchOvertakesEveryQueuedWrite) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend,
                           immediate_options(/*queue_depth=*/16,
                                             /*max_batch=*/1));
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  std::vector<std::future<WriteReceipt>> writes;
  for (std::size_t row = 0; row < 4; ++row) {
    writes.push_back(async_index.submit_update(row, {7, 7}));
  }
  // kUrgent under a FIFO policy with no write budget: placed ahead of
  // all four queued writes.
  auto urgent = async_index.submit(
      deadline_req({0, 1}, 0, SubmitOptions::Priority::kUrgent));
  backend.open_gate();
  EXPECT_EQ(urgent.get().hits.front().sensed_current_a, 1.0);
  for (auto& write : writes) (void)write.get();
  (void)blocked.get();

  const std::vector<long> expected = {-1, -2, 0, 1, 2, 3};
  EXPECT_EQ(backend.log(), expected);
}

TEST(AdmissionPriorityT, SearchFirstPolicyHonorsTheWritesAheadBudget) {
  GatedIndex backend;
  backend.close_gate();
  auto options = immediate_options(/*queue_depth=*/16, /*max_batch=*/1);
  options.admission.order = AdmissionPolicy::ClassOrder::kSearchFirst;
  options.admission.max_writes_ahead = 2;
  AsyncAmIndex async_index(backend, options);

  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  std::vector<std::future<WriteReceipt>> writes;
  for (std::size_t row = 0; row < 4; ++row) {
    writes.push_back(async_index.submit_update(row, {7, 7}));
  }
  // Class-default search under kSearchFirst: it may be overtaken by at
  // most max_writes_ahead = 2 of the queued writes.
  auto search = async_index.submit(req({0, 1}));
  backend.open_gate();
  (void)blocked.get();
  (void)search.get();
  for (auto& write : writes) (void)write.get();

  const std::vector<long> expected = {-1, 0, 1, -2, 2, 3};
  EXPECT_EQ(backend.log(), expected);

  // An explicit per-request kFifo opts back out of the policy: it
  // queues behind writes submitted before it.
  backend.close_gate();
  auto blocked2 = async_index.submit(req({0, 1}));
  backend.wait_entered(3);  // searches entered so far: -1, -2, blocked2
  auto write = async_index.submit_update(5, {7, 7});
  auto fifo = async_index.submit(
      deadline_req({0, 1}, 0, SubmitOptions::Priority::kFifo));
  backend.open_gate();
  (void)blocked2.get();
  (void)write.get();
  (void)fifo.get();
  const auto log = backend.log();
  ASSERT_EQ(log.size(), 9u);
  EXPECT_EQ(log[7], 5);   // the write dispatched first...
  EXPECT_EQ(log[8], -4);  // ...then the kFifo search (ordinal 3)
}

TEST(AdmissionPriorityT, PlacedAndFifoSearchesCoalesceUpToTheFirstWrite) {
  GatedIndex backend;
  backend.close_gate();
  AsyncAmIndex async_index(backend,
                           immediate_options(/*queue_depth=*/16,
                                             /*max_batch=*/8));
  auto blocked = async_index.submit(req({0, 1}));
  backend.wait_entered(1);
  auto fifo = async_index.submit(req({0, 1}));
  auto write = async_index.submit_update(3, {7, 7});
  // Placed ahead of the update, right behind the FIFO search: both see
  // the pre-write state, so they share one batch, which stops at the
  // update.
  auto urgent = async_index.submit(
      deadline_req({0, 1}, 0, SubmitOptions::Priority::kUrgent));
  backend.open_gate();
  EXPECT_EQ(blocked.get().hits.front().sensed_current_a, 0.0);
  EXPECT_EQ(fifo.get().hits.front().sensed_current_a, 1.0);
  EXPECT_EQ(urgent.get().hits.front().sensed_current_a, 2.0);
  (void)write.get();

  const auto log = backend.log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], -1);  // ordinal 0
  // The batch-mates (ordinals 1 and 2) may run on the pool in either
  // order; the update applies after both.
  EXPECT_EQ(std::multiset<long>(log.begin() + 1, log.begin() + 3),
            (std::multiset<long>{-3, -2}));
  EXPECT_EQ(log[3], 3);
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, 2u);
}

// -------------------------------------------------------------- stats --

TEST(AdmissionStatsT, PerClassCountersAndReservoirsTrackEachClass) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(8, 4, 4, 951);
  index.store(db);
  const auto queries = data::random_int_vectors(6, 4, 4, 952);
  const auto fresh = data::random_int_vectors(2, 4, 4, 953);

  AsyncAmIndex async_index(index);
  std::vector<std::future<SearchResponse>> searches;
  std::vector<std::future<WriteReceipt>> writes;
  for (const auto& q : queries) searches.push_back(async_index.submit(req(q)));
  writes.push_back(async_index.submit_update(0, fresh[0]));
  writes.push_back(async_index.submit_insert(fresh[1]));
  for (auto& future : searches) (void)future.get();
  for (auto& future : writes) (void)future.get();

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.submitted, queries.size());
  EXPECT_EQ(stats.search.served, queries.size());
  EXPECT_EQ(stats.search.queue_wait_us.count, queries.size());
  EXPECT_EQ(stats.search.end_to_end_us.count, queries.size());
  EXPECT_EQ(stats.search.shed_deadline, 0u);
  EXPECT_EQ(stats.write.submitted, 2u);
  EXPECT_EQ(stats.write.served, 2u);
  EXPECT_EQ(stats.write.queue_wait_us.count, 2u);
  EXPECT_EQ(stats.write.end_to_end_us.count, 2u);
  EXPECT_EQ(stats.write.rejected_overload, 0u);
  EXPECT_GE(stats.write.end_to_end_us.p50_us,
            stats.write.queue_wait_us.p50_us);
}

// -------------------------------------------------------------- parity --

enum class Backend { kEngine, kBanked };

class AdmissionParityT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {
 protected:
  static std::unique_ptr<AmIndex> make_index(
      Backend backend, SearchFidelity fidelity,
      const std::vector<std::vector<int>>& db) {
    std::unique_ptr<AmIndex> index;
    if (backend == Backend::kEngine) {
      core::FerexOptions opt;
      opt.fidelity = fidelity;
      index = std::make_unique<EngineIndex>(opt);
    } else {
      arch::BankedOptions opt;
      opt.bank_rows = 3;
      opt.engine.fidelity = fidelity;
      index = std::make_unique<BankedIndex>(opt);
    }
    index->configure(DistanceMetric::kHamming, 2);
    index->store(db);
    return index;
  }
};

TEST_P(AdmissionParityT, NoDeadlineFifoTrafficBitIdenticalToSync) {
  // The v2 contract: with no deadline and FIFO placement (whether from
  // the default policy or an explicit per-request kFifo under a
  // search-first policy), admission control must not perturb a single
  // bit of the v1 submission-order guarantee — even with deadline
  // shedding armed.
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 954);
  const auto queries = data::random_int_vectors(6, 5, 4, 955);
  const auto fresh = data::random_int_vectors(2, 5, 4, 956);

  auto sync_index = make_index(backend, fidelity, db);
  auto async_backend = make_index(backend, fidelity, db);

  std::vector<SearchResponse> sync_responses;
  sync_responses.push_back(sync_index->search(req(queries[0], 2)));
  sync_responses.push_back(sync_index->search(req(queries[1])));
  (void)sync_index->update(2, fresh[0]);
  sync_responses.push_back(sync_index->search(req(queries[2], 3)));
  (void)sync_index->update(4, fresh[1]);
  sync_responses.push_back(sync_index->search(req(queries[3])));
  sync_responses.push_back(sync_index->search(req(queries[4], 2)));
  sync_responses.push_back(sync_index->search(req(queries[5])));

  AsyncOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  options.admission.order = AdmissionPolicy::ClassOrder::kSearchFirst;
  options.admission.max_writes_ahead = 3;
  options.admission.shed = AdmissionPolicy::ShedPolicy::kSubmitAndDispatch;
  AsyncAmIndex async_index(*async_backend, options);

  // Every search pins kFifo explicitly — the per-request escape hatch
  // from the session's search-first policy.
  const auto fifo_req = [&](std::size_t i, std::size_t k) {
    SearchRequest r;
    r.query = queries[i];
    r.k = k;
    r.submit.priority = SubmitOptions::Priority::kFifo;
    return r;
  };
  std::vector<std::future<SearchResponse>> searches;
  std::vector<std::future<WriteReceipt>> writes;
  searches.push_back(async_index.submit(fifo_req(0, 2)));
  searches.push_back(async_index.submit(fifo_req(1, 1)));
  writes.push_back(async_index.submit_update(2, fresh[0]));
  searches.push_back(async_index.submit(fifo_req(2, 3)));
  writes.push_back(async_index.submit_update(4, fresh[1]));
  searches.push_back(async_index.submit(fifo_req(3, 1)));
  searches.push_back(async_index.submit(fifo_req(4, 2)));
  searches.push_back(async_index.submit(fifo_req(5, 1)));

  for (std::size_t i = 0; i < searches.size(); ++i) {
    expect_bit_identical(searches[i].get(), sync_responses[i]);
  }
  for (auto& write : writes) (void)write.get();
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.shed_deadline, 0u);  // no deadline, no sheds
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AdmissionParityT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      const Backend backend = std::get<0>(info.param);
      const SearchFidelity fidelity = std::get<1>(info.param);
      return std::string(backend == Backend::kEngine ? "Engine" : "Banked") +
             (fidelity == SearchFidelity::kCircuit ? "Circuit" : "Nominal");
    });

// -------------------------------------------------------- concurrency --

TEST(AdmissionConcurrencyT, MixedClassSubmittersShedAndServeWithoutRaces) {
  // Two search submitters (one with tight deadlines that shed, one
  // without) and two write submitters race the dispatcher. The test's
  // assertions are the accounting identities; its real teeth are the
  // TSan CI leg, which runs everything labeled `serve`.
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(16, 4, 4, 957);
  index.store(db);
  const auto queries = data::random_int_vectors(8, 4, 4, 958);
  const auto fresh = data::random_int_vectors(4, 4, 4, 959);

  AsyncOptions options;
  options.queue_depth = 64;
  options.max_batch = 4;
  options.max_wait_us = 0;
  options.admission.shed = AdmissionPolicy::ShedPolicy::kSubmitAndDispatch;
  AsyncAmIndex async_index(index, options);

  constexpr std::size_t kPerThread = 64;
  std::atomic<std::uint64_t> search_ok{0}, search_shed{0};
  std::atomic<std::uint64_t> search_rejected{0};
  std::atomic<std::uint64_t> write_ok{0}, write_rejected{0};
  const auto search_thread = [&](std::uint64_t deadline_us) {
    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < kPerThread; ++i) {
      try {
        futures.push_back(
            async_index.submit(deadline_req(queries[i % queries.size()],
                                            deadline_us)));
      } catch (const RejectedRequest& rejection) {
        // Submit refuses two ways under pressure: deadline shed and
        // queue-at-depth overload — the reason disambiguates.
        if (rejection.reason() == RejectReason::kDeadlineExceeded) {
          search_shed.fetch_add(1);
        } else {
          EXPECT_EQ(rejection.reason(), RejectReason::kOverloaded);
          search_rejected.fetch_add(1);
        }
      }
    }
    for (auto& future : futures) {
      try {
        (void)future.get();
        search_ok.fetch_add(1);
      } catch (const DeadlineExceeded&) {
        // Matched by type, never read: the caught object is shared with
        // the dispatcher's promise, and libstdc++ refcounts it in code
        // TSan does not instrument, so a field read here would race the
        // dispatcher-side free in TSan's eyes.
        search_shed.fetch_add(1);
      } catch (const RejectedRequest&) {
        ADD_FAILURE() << "a search future may only shed on its deadline";
      }
    }
  };
  const auto write_thread = [&] {
    std::vector<std::future<WriteReceipt>> futures;
    for (std::size_t i = 0; i < kPerThread; ++i) {
      try {
        futures.push_back(
            async_index.submit_update(i % 16, fresh[i % fresh.size()]));
      } catch (const RejectedRequest& rejection) {
        EXPECT_EQ(rejection.reason(), RejectReason::kOverloaded);
        write_rejected.fetch_add(1);
      }
    }
    for (auto& future : futures) (void)future.get();
    write_ok.fetch_add(futures.size());
  };

  std::vector<std::thread> threads;
  threads.emplace_back(search_thread, std::uint64_t{0});  // never sheds
  threads.emplace_back(search_thread, std::uint64_t{50});  // sheds freely
  threads.emplace_back(write_thread);
  threads.emplace_back(write_thread);
  for (auto& thread : threads) thread.join();
  async_index.shutdown();

  EXPECT_EQ(search_ok.load() + search_shed.load() + search_rejected.load(),
            2 * kPerThread);
  EXPECT_EQ(write_ok.load() + write_rejected.load(), 2 * kPerThread);
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.rejected_overload, search_rejected.load());
  EXPECT_EQ(stats.search.served, search_ok.load());
  EXPECT_EQ(stats.search.shed_deadline,
            stats.shed_submit + stats.shed_dispatch);
  EXPECT_EQ(stats.search.shed_deadline, search_shed.load());
  EXPECT_EQ(stats.write.served, write_ok.load());
  EXPECT_EQ(stats.write.rejected_overload, write_rejected.load());
  EXPECT_EQ(stats.search.submitted - stats.search.served,
            stats.shed_dispatch);
}

}  // namespace
}  // namespace ferex::serve
