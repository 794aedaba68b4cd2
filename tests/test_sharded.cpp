// Tests for sharded scatter-gather serving: arithmetic row routing,
// cross-shard merge + margin reconstruction, shard-local async write
// queues, and per-shard durability under a fleet manifest. The
// load-bearing claims:
//
//   * routing is pure arithmetic and dense: shard_of/to_local/to_global
//     round-trip, every shard's local array fills front to back, and
//     insert() lands exactly where the formula says;
//   * sharded results are bit-identical to an unsharded reference over
//     the same rows — exactly (a 1-shard fleet, a sole-live-shard
//     fleet, and every nominal-fidelity fleet equal the unsharded index
//     outright) or via the documented merge over per-shard reference
//     indexes built with ShardedIndex::shard_seed (circuit fidelity,
//     where each shard owns an independent ordinal-addressed noise
//     stream) — both backends, both fidelities, sync and async;
//   * a fully deleted shard is skipped outright (no search, no noise
//     draws) and EmptyIndex fires only when every shard is empty;
//   * a delete/insert/overwrite interleave serves bit-identically to a
//     fresh store() of the surviving layout, and a smaller store() drops
//     every old row;
//   * validation is fleet-level (length and alphabet of store rows,
//     write vectors and queries; rows past the fleet's end), and a
//     rejected store() leaves the fleet serving exactly as before;
//   * DurableShardedIndex recovers the fleet bit-identically, types
//     every topology/manifest mismatch or damaged manifest, and
//     survives a crash injected at the manifest-write failpoints of a
//     3-shard fleet.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "arch/banked_am.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"
#include "encode/serialize.hpp"
#include "serve/async_sharded.hpp"
#include "serve/banked_index.hpp"
#include "serve/durable_sharded.hpp"
#include "serve/engine_index.hpp"
#include "serve/sharded_index.hpp"
#include "serve/snapshot.hpp"
#include "util/durable_file.hpp"
#include "util/failpoint.hpp"

namespace ferex {
namespace {

using core::SearchFidelity;
using csp::DistanceMetric;

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_identical(const serve::SearchResponse& a,
                      const serve::SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].bank, b.hits[i].bank);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

/// Like expect_identical but ignoring Hit::bank — for comparisons
/// against an unsharded reference, where the fleet reports the shard
/// index and the reference reports its own (macro/bank) grouping.
void expect_same_results(const serve::SearchResponse& a,
                         const serve::SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

/// Ignoring bank AND margin — for the one documented divergence: at
/// k == 1 the fleet's margin is the gap to the best other shard winner
/// (a flat array also senses the winner's in-shard runner-up, which a
/// 1-hit scatter never fetches). Hits, order, currents, and distances
/// still agree bit for bit; the margin rule itself is proven against
/// the reference merge.
void expect_same_hits(const serve::SearchResponse& a,
                      const serve::SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

/// mkdtemp-backed scratch directory, removed (recursively) on scope exit.
class ScopedDir {
 public:
  ScopedDir() {
    std::string pattern = ::testing::TempDir() + "ferex_sharded_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    const char* made = ::mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : pattern;
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

enum class Backend { kEngine, kBanked };

serve::ShardedOptions make_options(Backend backend, SearchFidelity fidelity,
                                   std::size_t shards, std::size_t block) {
  serve::ShardedOptions options;
  options.shards = shards;
  options.shard_block = block;
  options.backend = backend == Backend::kEngine
                        ? serve::ShardBackend::kEngine
                        : serve::ShardBackend::kBanked;
  options.engine.fidelity = fidelity;
  options.bank_rows = 3;  // small banks so banked shards span banks
  return options;
}

std::unique_ptr<serve::ShardedIndex> make_fleet(
    const serve::ShardedOptions& options,
    const std::vector<std::vector<int>>& db) {
  auto fleet = std::make_unique<serve::ShardedIndex>(options);
  fleet->configure(DistanceMetric::kHamming, 2);
  fleet->store(db);
  return fleet;
}

/// The unsharded index a fleet over `options` is compared against: same
/// engine options (base seed), same backend geometry.
std::unique_ptr<serve::AmIndex> make_unsharded(
    const serve::ShardedOptions& options,
    const std::vector<std::vector<int>>& db) {
  std::unique_ptr<serve::AmIndex> index;
  if (options.backend == serve::ShardBackend::kBanked) {
    arch::BankedOptions banked;
    banked.engine = options.engine;
    banked.bank_rows = options.bank_rows;
    index = std::make_unique<serve::BankedIndex>(banked);
  } else {
    index = std::make_unique<serve::EngineIndex>(options.engine);
  }
  index->configure(DistanceMetric::kHamming, 2);
  if (!db.empty()) index->store(db);
  return index;
}

/// The exact per-shard reference index shard `s` must be bit-identical
/// to: same backend geometry and seed = ShardedIndex::shard_seed.
std::unique_ptr<serve::AmIndex> make_reference_shard(
    const serve::ShardedOptions& options, std::size_t shard,
    const std::vector<std::vector<int>>& slice) {
  auto engine = options.engine;
  engine.seed = serve::ShardedIndex::shard_seed(options, shard);
  std::unique_ptr<serve::AmIndex> index;
  if (options.backend == serve::ShardBackend::kBanked) {
    arch::BankedOptions banked;
    banked.engine = engine;
    banked.bank_rows = options.bank_rows;
    index = std::make_unique<serve::BankedIndex>(banked);
  } else {
    index = std::make_unique<serve::EngineIndex>(engine);
  }
  index->configure(DistanceMetric::kHamming, 2);
  if (!slice.empty()) index->store(slice);
  return index;
}

/// Rows of `db` routed to each shard, in global order (which the
/// routing formula maps onto dense shard-local order).
std::vector<std::vector<std::vector<int>>> shard_slices(
    const serve::ShardedIndex& fleet,
    const std::vector<std::vector<int>>& db) {
  std::vector<std::vector<std::vector<int>>> slices(fleet.shard_count());
  for (std::size_t g = 0; g < db.size(); ++g) {
    slices[fleet.shard_of(g)].push_back(db[g]);
  }
  return slices;
}

/// Independent reimplementation of the documented scatter-gather
/// semantics over per-shard reference indexes: per-shard k
/// (k == 1 -> 1; sole live shard -> k; else min(k + 1, live)), merge on
/// sensed current (circuit) / nominal distance (nominal) with ties to
/// the lowest global row, margins as the gap to the best remaining
/// candidate (+inf when the fleet is exhausted; at k == 1 that is the
/// best other shard winner), sole-live-shard responses passed through
/// wholesale. This is the reference the fleet must match bit for bit.
serve::SearchResponse reference_merge(
    const serve::ShardedIndex& fleet,
    const std::vector<std::unique_ptr<serve::AmIndex>>& refs,
    const std::vector<int>& query, std::size_t k, std::uint64_t ordinal,
    bool nominal) {
  const auto key_of = [nominal](const serve::Hit& hit) {
    return nominal ? static_cast<double>(hit.nominal_distance)
                   : hit.sensed_current_a;
  };
  std::size_t live_shards = 0;
  for (const auto& ref : refs) live_shards += ref->live_count() > 0 ? 1 : 0;
  std::vector<serve::SearchResponse> parts(refs.size());
  for (std::size_t s = 0; s < refs.size(); ++s) {
    const std::size_t live = refs[s]->live_count();
    if (live == 0) continue;
    serve::SearchRequest sub;
    sub.query = query;
    sub.k = (k == 1 || live_shards == 1) ? k : std::min(k + 1, live);
    parts[s] = refs[s]->search_at(sub, ordinal);
  }
  serve::SearchResponse out;
  if (live_shards == 1) {
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].hits.empty()) continue;
      out = parts[s];
      for (auto& hit : out.hits) {
        hit.global_row = fleet.to_global(s, hit.global_row);
        hit.bank = s;
      }
    }
    return out;
  }
  // Flatten every fetched candidate; the per-shard lists are sorted, so
  // the globally sorted order is exactly what the head merge consumes,
  // and the best remaining head after taking candidate i is candidate
  // i + 1.
  struct Candidate {
    double key;
    std::size_t global_row;
    serve::Hit hit;
    std::size_t shard;
  };
  std::vector<Candidate> all;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const auto& hit : parts[s].hits) {
      all.push_back({key_of(hit), fleet.to_global(s, hit.global_row), hit, s});
    }
  }
  std::sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.key != b.key ? a.key < b.key : a.global_row < b.global_row;
  });
  for (std::size_t i = 0; i < k; ++i) {
    serve::Hit hit = all[i].hit;
    hit.global_row = all[i].global_row;
    hit.bank = all[i].shard;
    hit.margin_a = i + 1 < all.size() ? all[i + 1].key - all[i].key : kInf;
    out.hits.push_back(hit);
  }
  return out;
}

serve::SearchRequest request(const std::vector<int>& query, std::size_t k) {
  serve::SearchRequest r;
  r.query = query;
  r.k = k;
  return r;
}

/// Asserts two fleets are in bit-identical serving state: counts, free
/// rows, a pinned-ordinal query sweep, and — the variation-RNG
/// continuation — a probe insert landing and serving identically.
void expect_same_fleet_state(serve::ShardedIndex& a, serve::ShardedIndex& b,
                             const std::vector<std::vector<int>>& queries,
                             const std::vector<int>& probe) {
  ASSERT_EQ(a.stored_count(), b.stored_count());
  ASSERT_EQ(a.live_count(), b.live_count());
  EXPECT_EQ(a.free_rows(), b.free_rows());
  EXPECT_EQ(a.configured(), b.configured());
  if (a.live_count() == 0) return;
  const std::size_t k = std::min<std::size_t>(3, a.live_count());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_identical(a.search_at(request(queries[i], k), 40 + i),
                     b.search_at(request(queries[i], k), 40 + i));
  }
  const auto receipt_a = a.insert(probe);
  const auto receipt_b = b.insert(probe);
  EXPECT_EQ(receipt_a.global_row, receipt_b.global_row);
  EXPECT_EQ(receipt_a.bank, receipt_b.bank);
  expect_identical(a.search_at(request(queries.front(), k), 77),
                   b.search_at(request(queries.front(), k), 77));
}

// ------------------------------------------------------------ routing --

TEST(ShardedRoutingT, FormulaRoundTripsAndFillsShardsDensely) {
  const std::size_t kGlobals = 400;
  for (const auto& [shards, block] :
       {std::pair<std::size_t, std::size_t>{1, 1},
        {2, 3},
        {3, 4},
        {4, 128}}) {
    serve::ShardedOptions options;
    options.shards = shards;
    options.shard_block = block;
    serve::ShardedIndex fleet{options};
    std::vector<std::vector<std::size_t>> locals(shards);
    for (std::size_t g = 0; g < kGlobals; ++g) {
      const std::size_t s = fleet.shard_of(g);
      ASSERT_LT(s, shards);
      const std::size_t local = fleet.to_local(g);
      EXPECT_EQ(fleet.to_global(s, local), g);
      locals[s].push_back(local);
    }
    // Prefixes of the global row space fill every shard densely: the
    // locals routed to a shard are exactly 0..count-1 in order.
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t i = 0; i < locals[s].size(); ++i) {
        EXPECT_EQ(locals[s][i], i) << "shards=" << shards
                                   << " block=" << block << " shard=" << s;
      }
    }
    for (const std::size_t total : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{17},
                                    std::size_t{100}, kGlobals}) {
      std::size_t sum = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        std::size_t count = 0;
        for (std::size_t g = 0; g < total; ++g) {
          count += fleet.shard_of(g) == s ? 1 : 0;
        }
        EXPECT_EQ(fleet.rows_for_shard(s, total), count);
        sum += fleet.rows_for_shard(s, total);
      }
      EXPECT_EQ(sum, total);
    }
  }
  // Shard 0 keeps the base seed (a 1-shard fleet is the unsharded index).
  serve::ShardedOptions options;
  options.engine.seed = 1234;
  EXPECT_EQ(serve::ShardedIndex::shard_seed(options, 0), 1234u);
  EXPECT_NE(serve::ShardedIndex::shard_seed(options, 1), 1234u);
}

TEST(ShardedRoutingT, InsertAppendsDenselyAndReusesLowestFreedRow) {
  const auto db = data::random_int_vectors(7, 5, 4, 2001);
  const auto fresh = data::random_int_vectors(3, 5, 4, 2002);
  auto fleet =
      make_fleet(make_options(Backend::kEngine, SearchFidelity::kNominal, 3, 2),
                 db);
  for (std::size_t s = 0; s < fleet->shard_count(); ++s) {
    EXPECT_EQ(fleet->shard(s).stored_count(), fleet->rows_for_shard(s, 7));
  }
  // Append lands at global row stored_count(), on the shard the formula
  // names, at that shard's next dense local slot.
  auto target = fleet->next_insert_target();
  EXPECT_EQ(target.second, 7u);
  EXPECT_EQ(target.first, fleet->shard_of(7));
  const auto appended = fleet->insert(fresh[0]);
  EXPECT_EQ(appended.global_row, 7u);
  EXPECT_EQ(appended.bank, fleet->shard_of(7));
  EXPECT_EQ(fleet->stored_count(), 8u);

  // Freed rows are reused lowest-global first, across shards.
  fleet->remove(5);
  fleet->remove(2);
  EXPECT_EQ(fleet->live_count(), 6u);
  EXPECT_EQ(fleet->free_rows(),
            (std::set<std::size_t>{2, 5}));
  target = fleet->next_insert_target();
  EXPECT_EQ(target.second, 2u);
  const auto reused = fleet->insert(fresh[1]);
  EXPECT_EQ(reused.global_row, 2u);
  EXPECT_EQ(reused.bank, fleet->shard_of(2));
  const auto reused2 = fleet->insert(fresh[2]);
  EXPECT_EQ(reused2.global_row, 5u);
  EXPECT_EQ(fleet->live_count(), 8u);
  EXPECT_TRUE(fleet->free_rows().empty());
}

TEST(ShardedRoutingT, ValidationIsFleetLevel) {
  const auto db = data::random_int_vectors(4, 5, 4, 2003);
  // 2 shards, block 4: all four rows land on shard 0; shard 1 is empty.
  auto fleet =
      make_fleet(make_options(Backend::kEngine, SearchFidelity::kNominal, 2, 4),
                 db);
  EXPECT_EQ(fleet->shard(1).stored_count(), 0u);
  // The next append routes to the empty shard — the fleet still rejects
  // a wrong-length vector (shard-level checks could not: it has no rows
  // to compare against yet).
  EXPECT_EQ(fleet->next_insert_target().first, 1u);
  EXPECT_THROW(fleet->insert(std::vector<int>{1, 2}), std::invalid_argument);
  EXPECT_THROW(fleet->insert(std::vector<int>{}), std::invalid_argument);
  // Values and queries are checked against the 2-bit alphabet.
  EXPECT_THROW(fleet->insert(std::vector<int>{0, 1, 2, 3, 4}),
               std::out_of_range);
  EXPECT_THROW(fleet->search(request({0, 1, 2, 3, 4}, 1)), std::out_of_range);
  EXPECT_THROW(fleet->remove(99), std::out_of_range);
  // Row 5 is past the fleet's end and routes to the never-stored shard
  // 1: still out_of_range, as AmIndex::remove documents.
  EXPECT_THROW(fleet->remove(5), std::out_of_range);
  EXPECT_THROW(fleet->update(5, db[0]), std::out_of_range);
  fleet->remove(1);
  EXPECT_THROW(fleet->remove(1), std::logic_error);
  EXPECT_THROW(
      fleet->search(request(db[0], fleet->live_count() + 1)),
      std::invalid_argument);
  EXPECT_THROW(fleet->search_shard(7, request(db[0], 1)), std::out_of_range);
  // Empty-shard single-shard serving is a typed EmptyIndex; the fleet
  // as a whole still serves.
  EXPECT_THROW(fleet->search_shard(1, request(db[0], 1)), serve::EmptyIndex);
  EXPECT_EQ(fleet->search(request(db[0], 1)).hits.size(), 1u);

  serve::ShardedIndex empty{
      make_options(Backend::kEngine, SearchFidelity::kNominal, 2, 4)};
  EXPECT_THROW(empty.search(request(db[0], 1)), serve::EmptyIndex);
}

TEST(ShardedRoutingT, NominalKOneTieGoesToTheLowestGlobalRow) {
  // 2 shards, block 2: rows 2 (shard 1) and 4 (shard 0) both match the
  // query exactly, and the flat index picks the lower row.
  const std::vector<std::vector<int>> db = {{3, 3, 3}, {3, 3, 3}, {0, 1, 0},
                                            {3, 3, 3}, {0, 1, 0}, {3, 3, 3}};
  const std::vector<int> query = {0, 1, 0};
  for (const Backend backend : {Backend::kEngine, Backend::kBanked}) {
    const auto options = make_options(backend, SearchFidelity::kNominal, 2, 2);
    auto fleet = make_fleet(options, db);
    auto flat = make_unsharded(options, db);
    const auto got = fleet->search(request(query, 1));
    EXPECT_EQ(got.best().global_row, 2u);
    expect_same_hits(got, flat->search(request(query, 1)));
  }
}

TEST(ShardedRoutingT, StoringASmallerDatabaseDropsTheOldRows) {
  // 2 shards, block 4: 8 rows fill both shards, then 2 rows fit on shard
  // 0 alone — shard 1's old rows must go, not merely be re-configured.
  const auto big = data::random_int_vectors(8, 5, 4, 2004);
  const auto small = data::random_int_vectors(2, 5, 4, 2005);
  const auto queries = data::random_int_vectors(2, 5, 4, 2006);
  const auto probe = data::random_int_vectors(1, 5, 4, 2007).front();
  for (const Backend backend : {Backend::kEngine, Backend::kBanked}) {
    const auto options = make_options(backend, SearchFidelity::kNominal, 2, 4);
    auto fleet = make_fleet(options, big);
    fleet->store(small);
    EXPECT_EQ(fleet->stored_count(), 2u);
    EXPECT_EQ(fleet->shard(1).stored_count(), 0u);
    EXPECT_EQ(fleet->next_insert_target(),
              std::make_pair(std::size_t{0}, std::size_t{2}));
    auto fresh = make_fleet(options, small);
    expect_same_fleet_state(*fleet, *fresh, queries, probe);
  }
}

// ------------------------------------------------- sync bit-identity --

class ShardedParityT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {};

TEST_P(ShardedParityT, OneShardFleetEqualsTheUnshardedIndex) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(9, 5, 4, 2010);
  const auto queries = data::random_int_vectors(4, 5, 4, 2011);
  const auto options = make_options(backend, fidelity, 1, 4);
  auto fleet = make_fleet(options, db);
  auto reference = make_unsharded(options, db);
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, db.size()}) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_results(fleet->search_at(request(queries[i], k), i),
                          reference->search_at(request(queries[i], k), i));
    }
  }
  // And through the consuming entry point, ordinal for ordinal.
  expect_same_results(fleet->search(request(queries[0], 2)),
                      reference->search(request(queries[0], 2)));
  EXPECT_EQ(fleet->query_serial(), reference->query_serial());
}

TEST_P(ShardedParityT, MultiShardFleetMatchesTheReferenceMerge) {
  const auto [backend, fidelity] = GetParam();
  const bool nominal = fidelity == SearchFidelity::kNominal;
  const auto db = data::random_int_vectors(10, 6, 4, 2012);
  const auto queries = data::random_int_vectors(3, 6, 4, 2013);
  const auto options = make_options(backend, fidelity, 3, 2);
  auto fleet = make_fleet(options, db);

  const auto slices = shard_slices(*fleet, db);
  std::vector<std::unique_ptr<serve::AmIndex>> refs;
  for (std::size_t s = 0; s < options.shards; ++s) {
    refs.push_back(make_reference_shard(options, s, slices[s]));
  }
  for (const std::uint64_t ordinal : {std::uint64_t{0}, std::uint64_t{5}}) {
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, db.size()}) {
      SCOPED_TRACE("ordinal=" + std::to_string(ordinal) +
                   " k=" + std::to_string(k));
      const auto got = fleet->search_at(request(queries[0], k), ordinal);
      const auto want =
          reference_merge(*fleet, refs, queries[0], k, ordinal, nominal);
      expect_identical(got, want);
      if (k == 5) {
        // k spans shard boundaries: more hits than any one shard holds
        // (max per-shard live is 4), so at least two shards contribute.
        std::set<std::size_t> banks;
        for (const auto& hit : got.hits) banks.insert(hit.bank);
        EXPECT_GE(banks.size(), 2u);
      }
      if (k == db.size()) {
        // Exhausted fleet: margin +inf, matching the flat comparator's
        // own final round (masked winners stay competing at +inf).
        EXPECT_EQ(got.hits.back().margin_a, kInf);
      }
    }
  }
}

TEST_P(ShardedParityT, NominalFleetEqualsTheUnshardedIndexOutright) {
  const auto [backend, fidelity] = GetParam();
  if (fidelity != SearchFidelity::kNominal) {
    GTEST_SKIP() << "circuit fleets have per-shard noise streams; their "
                    "reference is the per-shard merge above";
  }
  const auto db = data::random_int_vectors(11, 5, 4, 2014);
  const auto queries = data::random_int_vectors(3, 5, 4, 2015);
  const auto options = make_options(backend, fidelity, 4, 2);
  auto fleet = make_fleet(options, db);
  auto reference = make_unsharded(options, db);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, db.size()}) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(k) + " q=" + std::to_string(i));
      const auto got = fleet->search_at(request(queries[i], k), i);
      const auto want = reference->search_at(request(queries[i], k), i);
      // k > 1 margins equal the flat index's round margins outright
      // (the overfetched heads cover the true runner-up each round);
      // k == 1 margins follow the documented two-best shard-winner
      // rule instead — see expect_same_hits.
      if (k == 1) {
        expect_same_hits(got, want);
      } else {
        expect_same_results(got, want);
      }
    }
  }
}

TEST_P(ShardedParityT, PinnedOrdinalReplaysBitIdentically) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(8, 5, 4, 2016);
  const auto queries = data::random_int_vectors(2, 5, 4, 2017);
  auto fleet = make_fleet(make_options(backend, fidelity, 3, 2), db);

  const std::uint64_t serial = fleet->query_serial();
  serve::SearchRequest pinned = request(queries[0], 2);
  pinned.ordinal = 7;
  const auto first = fleet->search(pinned);
  const auto replay = fleet->search(pinned);
  expect_identical(first, replay);
  EXPECT_EQ(fleet->query_serial(), serial);  // pinned consumes nothing

  fleet->search(request(queries[1], 1));
  EXPECT_EQ(fleet->query_serial(), serial + 1);
}

TEST_P(ShardedParityT, FullyDeletedShardIsSkippedWithoutNoiseDraws) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(8, 5, 4, 2018);
  const auto queries = data::random_int_vectors(3, 5, 4, 2019);
  const auto options = make_options(backend, fidelity, 2, 2);
  auto fleet = make_fleet(options, db);

  // Globals 2, 3, 6, 7 are shard 1; delete all of them.
  for (const std::size_t g : {2, 3, 6, 7}) fleet->remove(g);
  EXPECT_EQ(fleet->shard(1).live_count(), 0u);
  EXPECT_EQ(fleet->live_count(), 4u);

  // The fleet now serves bit-identically to shard 0 alone at the same
  // ordinal — the dead shard is never searched, so it draws no noise
  // (its streams are those of a fleet that never included it), and the
  // sole live shard's response passes through wholesale at every k.
  const auto slices = shard_slices(*fleet, db);
  auto alone = make_reference_shard(options, 0, slices[0]);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(k) + " q=" + std::to_string(i));
      auto got = fleet->search_at(request(queries[i], k), 9 + i);
      auto want = alone->search_at(request(queries[i], k), 9 + i);
      for (auto& hit : want.hits) hit.global_row = fleet->to_global(0, hit.global_row);
      expect_same_results(got, want);
      for (const auto& hit : got.hits) EXPECT_EQ(hit.bank, 0u);
    }
  }
  EXPECT_THROW(fleet->search(request(queries[0], 5)), std::invalid_argument);

  // EmptyIndex fires only when EVERY shard is empty.
  for (const std::size_t g : {0, 1, 4, 5}) fleet->remove(g);
  EXPECT_THROW(fleet->search(request(queries[0], 1)), serve::EmptyIndex);
}

TEST_P(ShardedParityT, InterleaveEqualsAFreshStoreOfTheSurvivingLayout) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(8, 5, 4, 2020);
  const auto fresh = data::random_int_vectors(3, 5, 4, 2021);
  const auto queries = data::random_int_vectors(3, 5, 4, 2022);
  const auto options = make_options(backend, fidelity, 3, 2);

  auto fleet = make_fleet(options, db);
  fleet->remove(1);
  fleet->remove(6);
  EXPECT_EQ(fleet->insert(fresh[0]).global_row, 1u);  // lowest freed first
  fleet->update(3, fresh[1]);
  EXPECT_EQ(fleet->insert(fresh[2]).global_row, 6u);
  EXPECT_EQ(fleet->live_count(), 8u);

  // The surviving layout: every slot live, rows 1/3/6 overwritten.
  auto layout = db;
  layout[1] = fresh[0];
  layout[3] = fresh[1];
  layout[6] = fresh[2];
  auto reference = make_fleet(options, layout);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_identical(fleet->search_at(request(queries[i], 3), i),
                     reference->search_at(request(queries[i], 3), i));
  }

  // And the ISSUE's literal form: on a 1-shard fleet the same interleave
  // equals a fresh UNSHARDED store of the survivors.
  const auto single = make_options(backend, fidelity, 1, 4);
  auto small = make_fleet(single, db);
  small->remove(1);
  small->remove(6);
  small->insert(fresh[0]);
  small->update(3, fresh[1]);
  small->insert(fresh[2]);
  auto unsharded = make_unsharded(single, layout);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_results(small->search_at(request(queries[i], 3), i),
                        unsharded->search_at(request(queries[i], 3), i));
  }
}

TEST_P(ShardedParityT, BatchMatchesSequentialServing) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(9, 5, 4, 2023);
  const auto queries = data::random_int_vectors(4, 5, 4, 2024);
  const auto options = make_options(backend, fidelity, 3, 2);
  auto fleet = make_fleet(options, db);
  auto twin = make_fleet(options, db);

  std::vector<serve::SearchRequest> batch;
  for (const auto& q : queries) batch.push_back(request(q, 2));
  const auto responses = fleet->search_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_identical(responses[i], twin->search(batch[i]));
  }
  EXPECT_EQ(fleet->query_serial(), twin->query_serial());
}

TEST_P(ShardedParityT, RejectedStoreLeavesTheFleetServingAsBefore) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 2025);
  const auto queries = data::random_int_vectors(3, 5, 4, 2026);
  const auto probe = data::random_int_vectors(1, 5, 4, 2027).front();
  const auto options = make_options(backend, fidelity, 2, 2);
  auto fleet = make_fleet(options, db);
  auto twin = make_fleet(options, db);
  fleet->remove(3);
  twin->remove(3);

  // Rows 0-1 land on shard 0 and rows 2-3 on shard 1, so each shard's
  // slice is consistent on its own: only the fleet sees the database is
  // ragged.
  auto ragged = data::random_int_vectors(4, 5, 4, 2028);
  ragged[2].pop_back();
  ragged[3].pop_back();
  EXPECT_THROW(fleet->store(ragged), std::invalid_argument);
  EXPECT_THROW(fleet->store(std::vector<std::vector<int>>(4)),
               std::invalid_argument);
  auto bad_value = db;
  bad_value[5][0] = 4;  // outside the 2-bit alphabet
  EXPECT_THROW(fleet->store(bad_value), std::out_of_range);
  expect_same_fleet_state(*fleet, *twin, queries, probe);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardedParityT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Backend::kEngine
                             ? "Engine"
                             : "Banked") +
             (std::get<1>(info.param) == SearchFidelity::kCircuit ? "Circuit"
                                                                  : "Nominal");
    });

// ------------------------------------------------------------- async --

class AsyncShardedT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {};

TEST_P(AsyncShardedT, SubmissionOrderEqualsTheSynchronousSequence) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(7, 5, 4, 2030);
  const auto queries = data::random_int_vectors(3, 5, 4, 2031);
  const auto fresh = data::random_int_vectors(2, 5, 4, 2032);
  const auto options = make_options(backend, fidelity, 3, 2);
  auto fleet = make_fleet(options, db);
  auto twin = make_fleet(options, db);

  {
    serve::AsyncShardedIndex session(*fleet);
    // A served fleet rejects direct synchronous use at the front door.
    EXPECT_THROW(fleet->search(request(queries[0], 1)),
                 serve::MutationWhileServed);
    EXPECT_THROW(fleet->insert(fresh[0]), serve::MutationWhileServed);

    auto t1 = session.submit(request(queries[0], 2));
    auto w1 = session.submit_insert(fresh[0]);
    auto t2 = session.submit(request(queries[1], 1));
    auto ts = session.submit_shard(1, request(queries[2], 1));
    auto w2 = session.submit_remove(0);
    auto t3 = session.submit(request(queries[2], 3));
    auto w3 = session.submit_update(2, fresh[1]);
    auto t4 = session.submit(request(queries[0], 4));

    expect_identical(t1.get(), twin->search(request(queries[0], 2)));
    const auto r1 = w1.get();
    const auto twin_r1 = twin->insert(fresh[0]);
    EXPECT_EQ(r1.global_row, twin_r1.global_row);
    EXPECT_EQ(r1.bank, twin_r1.bank);
    expect_identical(t2.get(), twin->search(request(queries[1], 1)));
    expect_identical(ts.get(), twin->search_shard(1, request(queries[2], 1)));
    const auto r2 = w2.get();
    const auto twin_r2 = twin->remove(0);
    EXPECT_EQ(r2.global_row, twin_r2.global_row);
    EXPECT_EQ(r2.bank, twin_r2.bank);
    expect_identical(t3.get(), twin->search(request(queries[2], 3)));
    const auto r3 = w3.get();
    const auto twin_r3 = twin->update(2, fresh[1]);
    EXPECT_EQ(r3.global_row, twin_r3.global_row);
    EXPECT_EQ(r3.bank, twin_r3.bank);
    expect_identical(t4.get(), twin->search(request(queries[0], 4)));

    session.shutdown();
  }
  // The advanced serial was handed back: sync traffic continues the
  // same ordinal stream.
  EXPECT_EQ(fleet->query_serial(), twin->query_serial());
  expect_identical(fleet->search(request(queries[1], 2)),
                   twin->search(request(queries[1], 2)));
}

TEST_P(AsyncShardedT, SubmitValidatesAgainstTheFleetState) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 2033);
  const auto queries = data::random_int_vectors(2, 5, 4, 2034);
  const auto options = make_options(backend, fidelity, 3, 2);
  auto fleet = make_fleet(options, db);

  serve::AsyncShardedIndex session(*fleet);
  const std::uint64_t serial = session.query_serial();
  EXPECT_THROW(session.submit(request(queries[0], 0)), std::invalid_argument);
  EXPECT_THROW(session.submit(request(queries[0], 7)), std::invalid_argument);
  EXPECT_THROW(session.submit(request({1, 2}, 1)), std::invalid_argument);
  EXPECT_THROW(session.submit(request({0, 1, 2, 3, 4}, 1)), std::out_of_range);
  EXPECT_THROW(session.submit_shard(9, request(queries[0], 1)),
               std::out_of_range);
  EXPECT_THROW(session.submit_insert({1, 2}), std::invalid_argument);
  EXPECT_THROW(session.submit_insert({9, 9, 9, 9, 9}), std::out_of_range);
  EXPECT_THROW(session.submit_remove(99), std::out_of_range);
  auto pending = session.submit_remove(3);
  // The fleet's state is exact at submission: the double remove is
  // rejected here, not at apply time.
  EXPECT_THROW(session.submit_remove(3), std::logic_error);
  pending.get();
  // Rejections consumed nothing.
  EXPECT_EQ(session.query_serial(), serial);
  session.shutdown();
  EXPECT_TRUE(session.shut_down());
  EXPECT_THROW(session.submit(request(queries[0], 1)), serve::ShutDown);
  EXPECT_THROW(session.submit_insert(db[0]), serve::ShutDown);
  session.shutdown();  // idempotent
}

TEST_P(AsyncShardedT, EmptyFleetIsTypedAtSubmission) {
  const auto [backend, fidelity] = GetParam();
  serve::ShardedIndex fleet{make_options(backend, fidelity, 2, 2)};
  serve::AsyncShardedIndex session(fleet);
  EXPECT_THROW(session.submit(request({1, 1, 1}, 1)), serve::EmptyIndex);
  // Unconfigured fleet: inserts are rejected outright.
  EXPECT_THROW(session.submit_insert({1, 1, 1}), std::logic_error);
  session.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AsyncShardedT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Backend::kEngine
                             ? "Engine"
                             : "Banked") +
             (std::get<1>(info.param) == SearchFidelity::kCircuit ? "Circuit"
                                                                  : "Nominal");
    });

// ----------------------------------------------------------- durable --

class DurableShardedT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {};

TEST_P(DurableShardedT, RecoveryEqualsTheLiveFleet) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(7, 5, 4, 2040);
  const auto queries = data::random_int_vectors(3, 5, 4, 2041);
  const auto fresh = data::random_int_vectors(4, 5, 4, 2042);
  const auto options = make_options(backend, fidelity, 3, 2);
  ScopedDir dir;

  serve::ShardedIndex live{options};
  serve::DurableShardedIndex durable(live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  durable.remove(1);
  durable.insert(fresh[0]);
  durable.checkpoint();  // snapshot + WAL rotation per shard
  durable.update(3, fresh[1]);
  durable.remove(6);
  live.search(request(queries[0], 2));  // advance the serial past the manifest

  serve::ShardedIndex recovered{options};
  serve::DurableShardedIndex durable2(recovered, dir.path());
  // Search ordinals persist at manifest writes (configure/store/
  // checkpoint), not per search — align before comparing, as the
  // unsharded durable tests do.
  recovered.set_query_serial(live.query_serial());
  expect_same_fleet_state(live, recovered, queries, fresh[2]);
}

TEST_P(DurableShardedT, AsyncSessionJournalsIntoTheShardWals) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(7, 5, 4, 2043);
  const auto queries = data::random_int_vectors(3, 5, 4, 2044);
  const auto fresh = data::random_int_vectors(3, 5, 4, 2045);
  const auto options = make_options(backend, fidelity, 3, 2);
  ScopedDir dir;

  serve::ShardedIndex live{options};
  serve::DurableShardedIndex durable(live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  {
    const auto wals = durable.shard_wals();
    serve::AsyncShardedIndex session(live, {}, wals);
    auto w1 = session.submit_insert(fresh[0]);
    auto t1 = session.submit(request(queries[0], 2));
    auto w2 = session.submit_remove(2);
    auto w3 = session.submit_update(4, fresh[1]);
    w1.get();
    t1.get();
    w2.get();
    w3.get();
    session.shutdown();
  }

  serve::ShardedIndex recovered{options};
  serve::DurableShardedIndex durable2(recovered, dir.path());
  recovered.set_query_serial(live.query_serial());
  expect_same_fleet_state(live, recovered, queries, fresh[2]);
}

TEST_P(DurableShardedT, StoringASmallerDatabaseRecovers) {
  const auto [backend, fidelity] = GetParam();
  const auto big = data::random_int_vectors(8, 5, 4, 2051);
  const auto small = data::random_int_vectors(2, 5, 4, 2052);
  const auto queries = data::random_int_vectors(2, 5, 4, 2053);
  const auto probe = data::random_int_vectors(1, 5, 4, 2054).front();
  // 2 shards, block 4: the second store leaves shard 1 empty, which no
  // WAL record can express — the durable store checkpoints it.
  const auto options = make_options(backend, fidelity, 2, 4);
  ScopedDir dir;

  serve::ShardedIndex live{options};
  serve::DurableShardedIndex durable(live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(big);
  durable.store(small);

  serve::ShardedIndex recovered{options};
  serve::DurableShardedIndex durable2(recovered, dir.path());
  expect_same_fleet_state(live, recovered, queries, probe);
}

TEST(DurableShardedMismatchT, TopologyDisagreementIsTyped) {
  const auto db = data::random_int_vectors(6, 5, 4, 2046);
  ScopedDir dir;
  const auto options =
      make_options(Backend::kEngine, SearchFidelity::kCircuit, 3, 2);
  {
    serve::ShardedIndex live{options};
    serve::DurableShardedIndex durable(live, dir.path());
    durable.configure(DistanceMetric::kHamming, 2);
    durable.store(db);
  }
  {
    auto wrong = options;
    wrong.shards = 2;
    serve::ShardedIndex fleet{wrong};
    EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path()),
                 serve::SnapshotMismatch);
  }
  {
    auto wrong = options;
    wrong.shard_block = 4;
    serve::ShardedIndex fleet{wrong};
    EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path()),
                 serve::SnapshotMismatch);
  }
  {
    auto wrong = options;
    wrong.backend = serve::ShardBackend::kBanked;
    serve::ShardedIndex fleet{wrong};
    EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path()),
                 serve::SnapshotMismatch);
  }
}

TEST(DurableShardedMismatchT, LostShardDirectoryAndLostManifestAreTyped) {
  const auto db = data::random_int_vectors(6, 5, 4, 2047);
  const auto options =
      make_options(Backend::kEngine, SearchFidelity::kCircuit, 3, 2);
  {
    // A deleted shard directory cannot masquerade as a smaller fleet:
    // the recovered image is no longer dense.
    ScopedDir dir;
    {
      serve::ShardedIndex live{options};
      serve::DurableShardedIndex durable(live, dir.path());
      durable.configure(DistanceMetric::kHamming, 2);
      durable.store(db);
      durable.checkpoint();
      std::filesystem::remove_all(durable.shard_dir(1));
    }
    serve::ShardedIndex fleet{options};
    EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path()),
                 serve::SnapshotMismatch);
  }
  {
    // Shard state without a manifest can only be tampering: a cold
    // start writes the manifest before any shard file exists.
    ScopedDir dir;
    std::string manifest;
    {
      serve::ShardedIndex live{options};
      serve::DurableShardedIndex durable(live, dir.path());
      durable.configure(DistanceMetric::kHamming, 2);
      durable.store(db);
      manifest = durable.manifest_path();
    }
    std::filesystem::remove(manifest);
    serve::ShardedIndex fleet{options};
    EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path()),
                 serve::SnapshotMismatch);
  }
}

TEST(DurableShardedMismatchT, CompactionTriggerIsRejectedBeforeAnyWrite) {
  // The fleet has no compaction trigger: asking for one is an error,
  // raised before the directory holds a manifest or any shard state.
  ScopedDir dir;
  serve::ShardedIndex fleet{
      make_options(Backend::kEngine, SearchFidelity::kNominal, 2, 2)};
  serve::DurableOptions options;
  options.compact_free_fraction = 0.3;
  EXPECT_THROW(serve::DurableShardedIndex(fleet, dir.path(), options),
               std::invalid_argument);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(DurableShardedMismatchT, FleetHasNoBackendStateAndJournalsNothingForIt) {
  // Each shard snapshots and compacts itself; the fleet has no backend
  // state of its own. A composite configure, a compaction or a snapshot
  // of the fleet is std::invalid_argument, raised before any WAL record.
  const auto db = data::random_int_vectors(6, 5, 4, 2056);
  ScopedDir dir;
  serve::ShardedIndex fleet{
      make_options(Backend::kEngine, SearchFidelity::kNominal, 2, 2)};
  EXPECT_THROW(fleet.backend_state(), std::invalid_argument);
  EXPECT_THROW(fleet.restore_state({}), std::invalid_argument);
  serve::DurableIndex durable(fleet, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  EXPECT_THROW(durable.configure_composite(DistanceMetric::kHamming, 4),
               std::invalid_argument);
  EXPECT_THROW(durable.compact(), std::invalid_argument);
  EXPECT_THROW(durable.checkpoint(), std::invalid_argument);
  EXPECT_EQ(durable.last_seq(), 2u);
  EXPECT_EQ(fleet.stored_count(), db.size());
}

TEST(DurableShardedMismatchT, DamagedManifestIsTyped) {
  const auto db = data::random_int_vectors(6, 5, 4, 2055);
  const auto options =
      make_options(Backend::kEngine, SearchFidelity::kCircuit, 3, 2);
  ScopedDir dir;
  std::string path;
  {
    serve::ShardedIndex live{options};
    serve::DurableShardedIndex durable(live, dir.path());
    durable.configure(DistanceMetric::kHamming, 2);
    durable.store(db);
    path = durable.manifest_path();
  }
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(util::read_file(path, bytes));
  // True when reopening over `manifest` fails with a typed error; any
  // other exception escapes and fails the test.
  const auto rejected = [&](const std::vector<std::uint8_t>& manifest) {
    util::atomic_write_file(path, manifest);
    serve::ShardedIndex fleet{options};
    try {
      serve::DurableShardedIndex durable(fleet, dir.path());
    } catch (const encode::CorruptSnapshot&) {
      return true;
    } catch (const serve::SnapshotMismatch&) {
      return true;
    }
    return false;
  };
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    EXPECT_TRUE(rejected({bytes.begin(), bytes.begin() + size}))
        << "truncated to " << size << " bytes";
  }
  auto flipped = bytes;
  flipped[19] = 0xff;  // the shard count's high byte
  EXPECT_TRUE(rejected(flipped));
  EXPECT_FALSE(rejected(bytes));  // the intact manifest still opens
}

// --------------------------------------------------- crash injection --

/// Thrown by an armed failpoint to simulate dying at that instant.
struct CrashSim {};

/// The crash-sweep workload. Manifest writes happen at construction
/// (cold start), configure, store, and each checkpoint — five per run,
/// giving the manifest failpoints five deterministic crash events:
///
///   event 0: cold-start manifest (nothing applied)
///   event 1: configure's manifest (configure applied + journaled)
///   event 2: store's manifest     (+ store)
///   event 3: checkpoint 1         (+ remove(1), insert(fresh[0]))
///   event 4: checkpoint 2         (+ update(3, fresh[1]), insert(fresh[2]))
void run_fleet_script(serve::DurableShardedIndex& durable,
                      const std::vector<std::vector<int>>& db,
                      const std::vector<std::vector<int>>& fresh) {
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  durable.remove(1);
  durable.insert(fresh[0]);
  durable.checkpoint();
  durable.update(3, fresh[1]);
  durable.insert(fresh[2]);
  durable.checkpoint();
}

/// The mutations durably applied when the crash hit manifest event `e`
/// (the op whose manifest write crashed has already applied and
/// journaled — see the DurableShardedIndex journal-ordering contract).
void apply_reference_prefix(serve::ShardedIndex& fleet, std::uint64_t event,
                            const std::vector<std::vector<int>>& db,
                            const std::vector<std::vector<int>>& fresh) {
  if (event >= 1) fleet.configure(DistanceMetric::kHamming, 2);
  if (event >= 2) fleet.store(db);
  if (event >= 3) {
    fleet.remove(1);
    fleet.insert(fresh[0]);
  }
  if (event >= 4) {
    fleet.update(3, fresh[1]);
    fleet.insert(fresh[2]);
  }
}

const char* const kManifestSites[] = {
    "sharded.manifest.before_write",
    "sharded.manifest.after_write",
};

TEST_P(DurableShardedT, CrashInTheManifestWriteRecoversBitIdentical) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(7, 5, 4, 2048);
  const auto queries = data::random_int_vectors(3, 5, 4, 2049);
  const auto fresh = data::random_int_vectors(4, 5, 4, 2050);
  const auto options = make_options(backend, fidelity, 3, 2);

  for (const char* site : kManifestSites) {
    // Dry run: enumerate this site's crash events across the workload.
    std::uint64_t hits = 0;
    {
      ScopedDir dir;
      serve::ShardedIndex fleet{options};
      util::failpoint_arm(site, 0, nullptr);
      serve::DurableShardedIndex durable(fleet, dir.path());
      run_fleet_script(durable, db, fresh);
      hits = util::failpoint_hits();
      util::failpoint_disarm();
    }
    ASSERT_EQ(hits, 5u) << site << ": the event map above is stale";

    for (std::uint64_t nth = 1; nth <= hits; ++nth) {
      SCOPED_TRACE(std::string(site) + " hit " + std::to_string(nth));
      ScopedDir dir;
      {
        serve::ShardedIndex fleet{options};
        util::failpoint_arm(site, nth, [] { throw CrashSim{}; });
        try {
          serve::DurableShardedIndex durable(fleet, dir.path());
          run_fleet_script(durable, db, fresh);
          ADD_FAILURE() << "armed failpoint never fired";
        } catch (const CrashSim&) {
          // Died mid-workload; the in-memory fleet is abandoned.
        }
        util::failpoint_disarm();
      }

      // Recovery must succeed at every crash point (a torn manifest
      // write is either the old or the new complete manifest)...
      serve::ShardedIndex recovered{options};
      serve::DurableShardedIndex durable2(recovered, dir.path());

      // ...and equal an uninterrupted run of exactly the durable prefix.
      serve::ShardedIndex reference{options};
      apply_reference_prefix(reference, nth - 1, db, fresh);
      expect_same_fleet_state(recovered, reference, queries, fresh[3]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DurableShardedT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Backend::kEngine
                             ? "Engine"
                             : "Banked") +
             (std::get<1>(info.param) == SearchFidelity::kCircuit ? "Circuit"
                                                                  : "Nominal");
    });

}  // namespace
}  // namespace ferex
