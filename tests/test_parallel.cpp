// Tests for the persistent worker pool behind util::parallel_for.
//
// This binary forces FEREX_POOL_WIDTH=4 before main() so the pool
// spawns real workers even on single-core CI containers (pool_width
// caches the override at first use; this is the only test binary that
// sets it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace ferex::util {
namespace {

const bool kEnvForced = [] {
  setenv("FEREX_POOL_WIDTH", "4", 1);
  return true;
}();

TEST(PersistentPoolT, WidthHonorsTheEnvironmentOverride) {
  ASSERT_TRUE(kEnvForced);
  EXPECT_EQ(pool_width(), 4u);
}

TEST(PersistentPoolT, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(counts.size(), [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(PersistentPoolT, ReusesWorkersAcrossManyCalls) {
  // The pool spawns once; a few hundred fan-outs must all complete and
  // stay correct (per-call thread spawn would also make this test slow).
  for (int call = 0; call < 300; ++call) {
    std::atomic<std::size_t> sum{0};
    parallel_for(37, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 37u * 36u / 2u);
  }
}

TEST(PersistentPoolT, MultipleThreadsParticipate) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  parallel_for(64, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    // Hold the slowest items briefly so workers get a chance to claim
    // some before the submitter drains everything.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (arrived.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(PersistentPoolT, ItemsRunInPoolContext) {
  EXPECT_FALSE(on_pool_worker());
  std::atomic<bool> all_in_pool{true};
  parallel_for(16, [&](std::size_t) {
    if (!on_pool_worker()) all_in_pool.store(false);
  });
  EXPECT_TRUE(all_in_pool.load());
  EXPECT_FALSE(on_pool_worker());
}

TEST(PersistentPoolT, NestedCallsRunInlineOnTheSameThread) {
  std::atomic<bool> nested_ok{true};
  std::atomic<int> nested_items{0};
  parallel_for(8, [&](std::size_t) {
    const auto outer_thread = std::this_thread::get_id();
    parallel_for(8, [&](std::size_t) {
      nested_items.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != outer_thread) {
        nested_ok.store(false);
      }
    });
  });
  EXPECT_TRUE(nested_ok.load());
  EXPECT_EQ(nested_items.load(), 64);
}

TEST(PersistentPoolT, FirstExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool is not poisoned: later fan-outs still complete.
  std::atomic<int> done{0};
  parallel_for(50, [&](std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 50);
}

TEST(PersistentPoolT, NestedExceptionPropagatesThroughTheOuterFanIn) {
  EXPECT_THROW(parallel_for(4,
                            [&](std::size_t) {
                              parallel_for(4, [&](std::size_t j) {
                                if (j == 2) {
                                  throw std::invalid_argument("inner");
                                }
                              });
                            }),
               std::invalid_argument);
}

TEST(PersistentPoolT, FallbackItemsRunNestedCallsInline) {
  // While another thread's fan-out owns the pool, a caller runs its
  // items inline — and under the nesting rule, so an item's own fan-out
  // stays on the caller even once the pool has been freed.
  std::atomic<bool> release{false};
  std::atomic<int> owner_items{0};
  std::thread owner([&] {
    parallel_for(4, [&](std::size_t) {
      owner_items.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  // An owner item is running, so the owner's fan-out holds the pool.
  while (owner_items.load() == 0) std::this_thread::yield();

  const auto caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{true};
  std::atomic<bool> under_rule{true};
  std::atomic<int> nested_items{0};
  parallel_for(4, [&](std::size_t i) {
    if (std::this_thread::get_id() != caller) on_caller.store(false);
    if (!on_pool_worker()) under_rule.store(false);
    if (i == 0) {
      release.store(true);
      owner.join();  // the pool is free from here on
    }
    parallel_for(8, [&](std::size_t) {
      nested_items.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != caller) on_caller.store(false);
    });
  });
  EXPECT_TRUE(on_caller.load());
  EXPECT_TRUE(under_rule.load());
  EXPECT_EQ(nested_items.load(), 32);
  EXPECT_FALSE(on_pool_worker());
}

TEST(PersistentPoolT, ZeroAndSingleItemRunInline) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

}  // namespace
}  // namespace ferex::util
