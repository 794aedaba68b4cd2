// Tests for the mutable write path: delete (erase + post-decoder row
// mask), overwrite-in-place, and freed-slot reuse — through every layer
// (CrossbarArray / LtaCircuit, FerexEngine, BankedAm, serve::AmIndex,
// serve::AsyncAmIndex). The load-bearing claims:
//
//   * a delete/insert/overwrite interleaving senses identical currents
//     and returns bit-identical hits to a fresh store() of the
//     surviving database's layout, at both fidelities, on both
//     backends, sync and async;
//   * masked rows draw no comparator noise, so live rows' noise streams
//     are exactly those of an index holding only the live rows;
//   * k is validated against the live row count, with the typed
//     EmptyIndex error when nothing is live;
//   * async writes serialize against searches by submission order —
//     responses equal the synchronous sequence regardless of
//     coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/banked_am.hpp"
#include "circuit/lta.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"
#include "serve/async_index.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"

namespace ferex {
namespace {

using core::FerexEngine;
using core::FerexOptions;
using core::SearchFidelity;
using csp::DistanceMetric;

void expect_identical(const core::Hit& a, const core::Hit& b) {
  EXPECT_EQ(a.global_row, b.global_row);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.sensed_current_a, b.sensed_current_a);  // bit-exact
  EXPECT_EQ(a.margin_a, b.margin_a);
  EXPECT_EQ(a.nominal_distance, b.nominal_distance);
}

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

// ----------------------------------------------------------- circuit --

TEST(CrossbarMutT, EraseRowErasesDevicesAndMasksSearches) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(4, 5, 4, 901);
  engine.store(db);
  const auto* array = engine.array();
  ASSERT_NE(array, nullptr);

  engine.remove(1);
  EXPECT_FALSE(array->row_live(1));
  EXPECT_EQ(array->live_rows(), 3u);
  EXPECT_EQ(array->rows(), 4u);
  // Every device back at the erased threshold — offset-free, exactly
  // the constructor's state, so a later reprogram lands identically.
  const double vth_max = engine.options().circuit.fet.vth_max_v;
  for (std::size_t d = 0; d < array->dims(); ++d) {
    for (std::size_t f = 0; f < array->fefets_per_cell(); ++f) {
      EXPECT_EQ(array->device_vth(1, d, f), vth_max);
    }
  }
  // The disabled branch reports the +infinity sentinel in both kernels.
  const auto q = data::random_int_vectors(1, 5, 4, 902).front();
  const auto currents = engine.row_currents(q);
  EXPECT_TRUE(std::isinf(currents[1]));
}

TEST(CrossbarMutT, EraseRowValidation) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(3, 4, 4, 903));
  EXPECT_THROW(engine.remove(3), std::out_of_range);
  engine.remove(2);
  EXPECT_THROW(engine.remove(2), std::logic_error);
}

TEST(LtaMaskT, MaskedDecideMatchesCompactDecideBitExactly) {
  circuit::LtaCircuit lta;
  const std::vector<double> full = {5.0, 3.0, 7.0, 4.0, 6.0};
  const std::vector<std::uint8_t> live = {1, 0, 1, 1, 0};
  const std::vector<double> compact = {5.0, 7.0, 4.0};

  // Dead rows draw no comparator noise: the masked decision over the
  // full array must consume the rng stream exactly as the compact
  // (survivors-only) array does.
  util::Rng masked_rng(77);
  util::Rng compact_rng(77);
  const auto masked = lta.decide(full, 1.0, &masked_rng, live);
  const auto plain = lta.decide(compact, 1.0, &compact_rng);
  const std::size_t mapping[] = {0, 2, 3};  // compact index -> full row
  EXPECT_EQ(masked.winner, mapping[plain.winner]);
  EXPECT_EQ(masked.winner_current_a, plain.winner_current_a);
  EXPECT_EQ(masked.margin_a, plain.margin_a);

  // Same for the k-NN rounds (round-masked winners keep drawing noise
  // on both sides; dead rows never do).
  util::Rng masked_k(78);
  util::Rng compact_k(78);
  const auto masked_hits = lta.decide_k_detailed(full, 1.0, 3, &masked_k,
                                                 live);
  const auto plain_hits = lta.decide_k_detailed(compact, 1.0, 3, &compact_k);
  ASSERT_EQ(masked_hits.size(), plain_hits.size());
  for (std::size_t i = 0; i < masked_hits.size(); ++i) {
    EXPECT_EQ(masked_hits[i].winner, mapping[plain_hits[i].winner]);
    EXPECT_EQ(masked_hits[i].winner_current_a,
              plain_hits[i].winner_current_a);
    EXPECT_EQ(masked_hits[i].margin_a, plain_hits[i].margin_a);
  }
}

TEST(LtaMaskT, MaskedDecideValidation) {
  circuit::LtaCircuit lta;
  const std::vector<double> currents = {1.0, 2.0, 3.0};
  const std::vector<std::uint8_t> live = {1, 0, 1};
  const std::vector<std::uint8_t> none = {0, 0, 0};
  const std::vector<std::uint8_t> short_mask = {1, 0};
  EXPECT_THROW(lta.decide(currents, 1.0, nullptr, none),
               std::invalid_argument);
  EXPECT_THROW(lta.decide(currents, 1.0, nullptr, short_mask),
               std::invalid_argument);
  // k bounded by live rows, not physical rows.
  EXPECT_THROW(lta.decide_k_detailed(currents, 1.0, 3, nullptr, live),
               std::invalid_argument);
  EXPECT_EQ(lta.decide_k_detailed(currents, 1.0, 2, nullptr, live).size(),
            2u);
}

// ------------------------------------------------------------ engine --

TEST(EngineMutT, RemoveExcludesRowAndBoundsK) {
  FerexOptions opt;
  opt.fidelity = SearchFidelity::kNominal;
  FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(6, 5, 4, 905);
  engine.store(db);

  // Deleting the current winner must dethrone it.
  const auto q = data::random_int_vectors(1, 5, 4, 906).front();
  const auto before = engine.search_hits_at(q, 1, 0).front();
  engine.remove(before.global_row);
  EXPECT_EQ(engine.live_count(), 5u);
  EXPECT_EQ(engine.stored_count(), 6u);
  const auto after = engine.search_hits_at(q, 1, 0).front();
  EXPECT_NE(after.global_row, before.global_row);

  // k == live_count covers exactly the live rows; one more throws.
  const auto hits = engine.search_hits_at(q, 5, 0);
  std::vector<bool> seen(db.size(), false);
  for (const auto& hit : hits) {
    EXPECT_NE(hit.global_row, before.global_row);
    seen[hit.global_row] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 5);
  EXPECT_THROW(engine.search_hits_at(q, 6, 0), std::invalid_argument);
}

TEST(EngineMutT, InsertReusesLowestFreedSlot) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(5, 4, 4, 907);
  engine.store(db);
  engine.remove(3);
  engine.remove(1);

  const std::vector<int> x(4, 2);
  const core::WriteReceipt first = engine.insert(x);
  EXPECT_EQ(first.global_row, 1u);
  const core::WriteReceipt second = engine.insert(x);
  EXPECT_EQ(second.global_row, 3u);
  EXPECT_EQ(engine.stored_count(), 5u);  // no growth while slots free
  EXPECT_EQ(engine.live_count(), 5u);
  const core::WriteReceipt third = engine.insert(x);
  EXPECT_EQ(third.global_row, 5u);  // exhausted free slots: append
  EXPECT_EQ(engine.stored_count(), 6u);
}

TEST(EngineMutT, UpdateCostEqualsEraseThenProgram) {
  const auto db = data::random_int_vectors(4, 5, 4, 908);
  const std::vector<int> v(5, 3);

  FerexEngine updated;
  updated.configure(DistanceMetric::kHamming, 2);
  updated.store(db);
  const auto update_cost = updated.update(2, v);

  FerexEngine sequenced;
  sequenced.configure(DistanceMetric::kHamming, 2);
  sequenced.store(db);
  const auto erase_cost = sequenced.remove(2);
  const auto program_cost = sequenced.insert(v).cost;  // reuses slot 2

  EXPECT_EQ(update_cost.pulses, erase_cost.pulses + program_cost.pulses);
  EXPECT_DOUBLE_EQ(update_cost.energy_j,
                   program_cost.energy_j + erase_cost.energy_j);
  EXPECT_DOUBLE_EQ(update_cost.latency_s,
                   program_cost.latency_s + erase_cost.latency_s);
  // And the two engines hold identical data afterwards.
  const auto q = data::random_int_vectors(1, 5, 4, 909).front();
  expect_identical(updated.search_hits_at(q, 1, 4).front(),
                   sequenced.search_hits_at(q, 1, 4).front());
}

class EngineInterleaveT : public ::testing::TestWithParam<SearchFidelity> {};

TEST_P(EngineInterleaveT, InterleaveMatchesFreshStoreOfSurvivingLayout) {
  FerexOptions opt;
  opt.fidelity = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 910);
  const auto extra = data::random_int_vectors(3, 5, 4, 911);

  FerexEngine mutated(opt);
  mutated.configure(DistanceMetric::kHamming, 2);
  mutated.store(db);
  mutated.remove(1);
  mutated.remove(4);
  EXPECT_EQ(mutated.insert(extra[0]).global_row, 1u);   // reuse slot 1
  mutated.update(3, extra[1]);                   // overwrite in place
  EXPECT_EQ(mutated.insert(extra[2]).global_row, 4u);   // reuse slot 4
  EXPECT_EQ(mutated.live_count(), 6u);

  // The surviving database in its physical layout, stored fresh with
  // the same seed: identical device variation per slot, identical
  // values — currents and hits must match bit for bit.
  std::vector<std::vector<int>> layout = db;
  layout[1] = extra[0];
  layout[3] = extra[1];
  layout[4] = extra[2];
  FerexEngine fresh(opt);
  fresh.configure(DistanceMetric::kHamming, 2);
  fresh.store(layout);

  const auto queries = data::random_int_vectors(6, 5, 4, 912);
  std::uint64_t ordinal = 0;
  for (const auto& q : queries) {
    const auto a = mutated.row_currents(q);
    const auto b = fresh.row_currents(q);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) EXPECT_EQ(a[r], b[r]);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{6}}) {
      const auto ha = mutated.search_hits_at(q, k, ordinal);
      const auto hb = fresh.search_hits_at(q, k, ordinal);
      ASSERT_EQ(ha.size(), hb.size());
      for (std::size_t i = 0; i < ha.size(); ++i) {
        expect_identical(ha[i], hb[i]);
      }
      ++ordinal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fidelities, EngineInterleaveT,
                         ::testing::Values(SearchFidelity::kCircuit,
                                           SearchFidelity::kNominal),
                         [](const auto& info) {
                           return info.param == SearchFidelity::kCircuit
                                      ? "Circuit"
                                      : "Nominal";
                         });

TEST(EngineMutT, ResidualMaskMatchesFreshStoreOfSurvivorsOnly) {
  // With variation disabled, circuit-fidelity currents depend only on
  // the stored values — so a masked array must match a fresh store() of
  // just the survivors, including every comparator-noise draw (dead
  // rows draw nothing).
  FerexOptions opt;
  opt.circuit.variation.enabled = false;
  const auto db = data::random_int_vectors(5, 6, 4, 913);

  FerexEngine mutated(opt);
  mutated.configure(DistanceMetric::kHamming, 2);
  mutated.store(db);
  mutated.remove(1);
  mutated.remove(3);

  FerexEngine survivors(opt);
  survivors.configure(DistanceMetric::kHamming, 2);
  survivors.store({db[0], db[2], db[4]});

  const std::size_t mapping[] = {0, 2, 4};  // survivor index -> slot
  const auto queries = data::random_int_vectors(5, 6, 4, 914);
  std::uint64_t ordinal = 0;
  for (const auto& q : queries) {
    const auto a = mutated.search_hits_at(q, 3, ordinal);
    const auto b = survivors.search_hits_at(q, 3, ordinal);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].global_row, mapping[b[i].global_row]);
      EXPECT_EQ(a[i].sensed_current_a, b[i].sensed_current_a);
      EXPECT_EQ(a[i].margin_a, b[i].margin_a);
      EXPECT_EQ(a[i].nominal_distance, b[i].nominal_distance);
    }
    ++ordinal;
  }
}

TEST(EngineMutT, ConfigureAfterRemovePreservesMask) {
  FerexOptions opt;
  opt.fidelity = SearchFidelity::kNominal;
  FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(5, 4, 4, 915);
  engine.store(db);
  engine.remove(2);

  // Re-encoding rebuilds the array; the removed slot must stay removed.
  engine.configure(DistanceMetric::kManhattan, 2);
  EXPECT_EQ(engine.live_count(), 4u);
  const auto q = data::random_int_vectors(1, 4, 4, 916).front();
  for (const auto& hit : engine.search_hits_at(q, 4, 0)) {
    EXPECT_NE(hit.global_row, 2u);
  }
}

TEST(EngineMutT, AllRemovedEngineRejectsSearches) {
  FerexEngine engine;
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(2, 4, 4, 917));
  engine.remove(0);
  engine.remove(1);
  EXPECT_EQ(engine.live_count(), 0u);
  const std::vector<int> q(4, 0);
  // No k can be valid with nothing live (serving layers turn this into
  // the typed EmptyIndex before reaching the engine).
  EXPECT_THROW(engine.search_hits_at(q, 1, 0), std::invalid_argument);
  // Insert revives the index through the freed slots.
  EXPECT_EQ(engine.insert(std::vector<int>(4, 1)).global_row, 0u);
  EXPECT_EQ(engine.search_hits_at(q, 1, 0).front().global_row, 0u);
}

// ------------------------------------------------------------ banked --

TEST(BankedMutT, RemoveRoutesThroughGlobalRowAndInsertReusesBeforeGrowth) {
  arch::BankedOptions opt;
  opt.bank_rows = 3;
  arch::BankedAm am(opt);
  am.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(6, 4, 4, 918);
  am.store(db);  // two full banks
  ASSERT_EQ(am.bank_count(), 2u);

  const auto removed = am.remove(4);  // bank 1, local row 1
  EXPECT_EQ(removed.bank, 1u);
  EXPECT_EQ(removed.global_row, 4u);
  EXPECT_GT(removed.cost.pulses, 0u);
  EXPECT_EQ(am.live_count(), 5u);
  EXPECT_EQ(am.bank(1).live_count(), 2u);

  // The freed slot is reused before a third bank is spawned.
  const auto reused = am.insert(std::vector<int>(4, 1));
  EXPECT_EQ(reused.global_row, 4u);
  EXPECT_EQ(reused.bank, 1u);
  EXPECT_EQ(am.bank_count(), 2u);
  EXPECT_EQ(am.stored_count(), 6u);

  // With every slot live again, the next insert grows a bank.
  const auto grown = am.insert(std::vector<int>(4, 2));
  EXPECT_EQ(grown.global_row, 6u);
  EXPECT_EQ(grown.bank, 2u);
  EXPECT_EQ(am.bank_count(), 3u);
}

TEST(BankedMutT, EmptiedBankStopsFiringAndRevives) {
  arch::BankedOptions opt;
  opt.bank_rows = 2;
  opt.engine.fidelity = SearchFidelity::kNominal;
  arch::BankedAm am(opt);
  am.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(4, 4, 4, 919);
  am.store(db);  // two banks
  ASSERT_EQ(am.bank_count(), 2u);

  am.remove(2);
  am.remove(3);
  EXPECT_EQ(am.live_bank_count(), 1u);

  // Searches skip the dead bank entirely; k spans only live rows.
  const auto q = data::random_int_vectors(1, 4, 4, 920).front();
  const auto hit = am.search_at(q, 0);
  EXPECT_LT(hit.global_row, 2u);
  const auto hits = am.search_k_hits(q, 2);
  for (const auto& h : hits) EXPECT_LT(h.global_row, 2u);
  EXPECT_THROW(am.search_k_hits(q, 3), std::invalid_argument);

  // Reviving a row in the dead bank makes it fire again.
  am.update(3, std::vector<int>(4, 1));
  EXPECT_EQ(am.live_bank_count(), 2u);
}

class BankedInterleaveT : public ::testing::TestWithParam<SearchFidelity> {};

TEST_P(BankedInterleaveT, InterleaveMatchesFreshStoreOfSurvivingLayout) {
  arch::BankedOptions opt;
  opt.bank_rows = 2;
  opt.engine.fidelity = GetParam();
  const auto db = data::random_int_vectors(5, 4, 4, 921);
  const auto extra = data::random_int_vectors(2, 4, 4, 922);

  arch::BankedAm mutated(opt);
  mutated.configure(DistanceMetric::kHamming, 2);
  mutated.store(db);
  mutated.remove(1);
  mutated.remove(4);
  EXPECT_EQ(mutated.insert(extra[0]).global_row, 1u);
  mutated.update(4, extra[1]);
  EXPECT_EQ(mutated.live_count(), 5u);

  std::vector<std::vector<int>> layout = db;
  layout[1] = extra[0];
  layout[4] = extra[1];
  arch::BankedAm fresh(opt);
  fresh.configure(DistanceMetric::kHamming, 2);
  fresh.store(layout);

  const auto queries = data::random_int_vectors(5, 4, 4, 923);
  std::uint64_t ordinal = 0;
  for (const auto& q : queries) {
    expect_identical(mutated.search_at(q, ordinal),
                     fresh.search_at(q, ordinal));
    ++ordinal;
    const auto ka = mutated.search_k_hits(q, 4);
    const auto kb = fresh.search_k_hits(q, 4);
    ASSERT_EQ(ka.size(), kb.size());
    for (std::size_t i = 0; i < ka.size(); ++i) expect_identical(ka[i], kb[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Fidelities, BankedInterleaveT,
                         ::testing::Values(SearchFidelity::kCircuit,
                                           SearchFidelity::kNominal),
                         [](const auto& info) {
                           return info.param == SearchFidelity::kCircuit
                                      ? "Circuit"
                                      : "Nominal";
                         });

// ------------------------------------------------------------- serve --

TEST(ServeMutT, KValidationTracksLiveCountOnBothBackends) {
  const auto db = data::random_int_vectors(4, 4, 4, 924);
  const auto q = data::random_int_vectors(1, 4, 4, 925).front();

  serve::EngineIndex engine_index;
  engine_index.configure(DistanceMetric::kHamming, 2);
  engine_index.store(db);
  arch::BankedOptions banked_opt;
  banked_opt.bank_rows = 2;
  serve::BankedIndex banked_index(banked_opt);
  banked_index.configure(DistanceMetric::kHamming, 2);
  banked_index.store(db);

  for (serve::AmIndex* index :
       {static_cast<serve::AmIndex*>(&engine_index),
        static_cast<serve::AmIndex*>(&banked_index)}) {
    EXPECT_EQ(index->search({q, 4, std::nullopt}).hits.size(), 4u);
    const auto receipt = index->remove(1);
    EXPECT_EQ(receipt.global_row, 1u);
    EXPECT_GT(receipt.cost.pulses, 0u);
    EXPECT_EQ(index->live_count(), 3u);
    EXPECT_EQ(index->stored_count(), 4u);
    // k now bounded by the live rows, not the physical slots.
    EXPECT_THROW(index->search({q, 4, std::nullopt}), std::invalid_argument);
    EXPECT_EQ(index->search({q, 3, std::nullopt}).hits.size(), 3u);
  }
}

TEST(ServeMutT, EmptyIndexIsATypedError) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const std::vector<int> q(4, 0);
  // Never stored: no k can be valid — typed, not "bad k".
  EXPECT_THROW(index.search({q, 1, std::nullopt}), serve::EmptyIndex);

  index.store(data::random_int_vectors(2, 4, 4, 926));
  index.remove(0);
  index.remove(1);
  // All deleted: same typed rejection for every k.
  EXPECT_THROW(index.search({q, 1, std::nullopt}), serve::EmptyIndex);
  EXPECT_THROW(index.search({q, 2, std::nullopt}), serve::EmptyIndex);
  EXPECT_THROW(index.validate_request({q, 1, std::nullopt}),
               serve::EmptyIndex);
  // Inserting through the freed slots revives serving.
  index.insert(std::vector<int>(4, 1));
  EXPECT_EQ(index.search({q, 1, std::nullopt}).hits.size(), 1u);
}

TEST(ServeMutT, PinnedOrdinalReplayAcrossDeletes) {
  // Nominal fidelity: no comparator noise, so a pinned replay after
  // deleting a non-hit row must reproduce the response exactly.
  arch::BankedOptions opt;
  opt.bank_rows = 3;
  opt.engine.fidelity = SearchFidelity::kNominal;
  serve::BankedIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(6, 5, 4, 927);
  index.store(db);

  const auto q = data::random_int_vectors(1, 5, 4, 928).front();
  const serve::SearchRequest pinned{q, 2, std::uint64_t{11}};
  const auto before = index.search(pinned);
  // Delete a row outside the top-3: the last hit's margin references
  // the next-best remaining row, so the victim must not be it either.
  const auto top3 = index.search({q, 3, std::uint64_t{11}});
  std::size_t victim = 0;
  const auto in_top3 = [&](std::size_t row) {
    for (const auto& hit : top3.hits) {
      if (hit.global_row == row) return true;
    }
    return false;
  };
  while (in_top3(victim)) ++victim;
  index.remove(victim);
  expect_identical(index.search(pinned), before);
}

TEST(ServeMutT, SynchronousMutationWhileServedThrowsTyped) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(4, 4, 4, 929);
  index.store(db);
  const std::vector<int> q(4, 0);
  const std::vector<std::vector<int>> db2 = {{0, 1, 2, 3}};

  {
    serve::AsyncAmIndex async_index(index);
    // Every synchronous mutation (and ordinal-consuming serve) is a
    // typed error while the async front door owns the index.
    EXPECT_THROW(index.store(db2), serve::MutationWhileServed);
    EXPECT_THROW(index.configure(DistanceMetric::kManhattan, 2),
                 serve::MutationWhileServed);
    EXPECT_THROW(index.configure_composite(DistanceMetric::kHamming, 4),
                 serve::MutationWhileServed);
    EXPECT_THROW(index.insert(std::vector<int>(4, 1)),
                 serve::MutationWhileServed);
    EXPECT_THROW(index.remove(0), serve::MutationWhileServed);
    EXPECT_THROW(index.update(0, std::vector<int>(4, 1)),
                 serve::MutationWhileServed);
    EXPECT_THROW(index.search({q, 1, std::nullopt}),
                 serve::MutationWhileServed);
    const serve::SearchRequest requests[] = {{q, 1, std::nullopt}};
    EXPECT_THROW(index.search_batch(requests), serve::MutationWhileServed);
    // Even const ordinal-addressed reads: they would race the queued
    // writes outside the wrapper's serialization.
    EXPECT_THROW(index.search_at({q, 1, std::nullopt}, 0),
                 serve::MutationWhileServed);
    EXPECT_THROW(index.set_query_serial(0), serve::MutationWhileServed);
    // The async path itself stays open for both reads and writes.
    EXPECT_EQ(async_index.submit({q, 1, std::nullopt}).get().hits.size(),
              1u);
    EXPECT_EQ(async_index.submit_remove(3).get().global_row, 3u);
  }
  // Shutdown returns the index to synchronous use.
  EXPECT_EQ(index.live_count(), 3u);
  EXPECT_EQ(index.insert(std::vector<int>(4, 1)).global_row, 3u);
  EXPECT_EQ(index.search({q, 1, std::nullopt}).hits.size(), 1u);
}

// ------------------------------------------------------------- async --

enum class Backend { kEngine, kBanked };

class AsyncWriteParityT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {
 protected:
  static std::unique_ptr<serve::AmIndex> make_index(
      Backend backend, SearchFidelity fidelity,
      const std::vector<std::vector<int>>& db) {
    std::unique_ptr<serve::AmIndex> index;
    if (backend == Backend::kEngine) {
      core::FerexOptions opt;
      opt.fidelity = fidelity;
      index = std::make_unique<serve::EngineIndex>(opt);
    } else {
      arch::BankedOptions opt;
      opt.bank_rows = 3;
      opt.engine.fidelity = fidelity;
      index = std::make_unique<serve::BankedIndex>(opt);
    }
    index->configure(DistanceMetric::kHamming, 2);
    index->store(db);
    return index;
  }
};

TEST_P(AsyncWriteParityT, InterleavedWritesMatchTheSynchronousSequence) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 930);
  const auto queries = data::random_int_vectors(8, 5, 4, 931);
  const auto fresh = data::random_int_vectors(3, 5, 4, 932);

  auto sync_index = make_index(backend, fidelity, db);
  auto async_backend = make_index(backend, fidelity, db);

  // The synchronous reference: ops applied strictly in order.
  std::vector<serve::SearchResponse> sync_responses;
  std::vector<serve::WriteReceipt> sync_receipts;
  const auto sync_ops = [&](serve::AmIndex& index) {
    sync_responses.push_back(index.search({queries[0], 2, std::nullopt}));
    sync_responses.push_back(index.search({queries[1], 1, std::nullopt}));
    sync_receipts.push_back(index.remove(2));
    sync_responses.push_back(index.search({queries[2], 1, std::nullopt}));
    sync_receipts.push_back(index.update(4, fresh[0]));
    sync_responses.push_back(index.search({queries[3], 3, std::nullopt}));
    sync_responses.push_back(index.search({queries[4], 1, std::nullopt}));
    sync_receipts.push_back(index.update(2, fresh[1]));  // revives slot 2
    sync_responses.push_back(index.search({queries[5], 2, std::nullopt}));
    sync_receipts.push_back(index.remove(0));
    sync_responses.push_back(index.search({queries[6], 1, std::nullopt}));
    sync_receipts.push_back(index.insert(fresh[2]));     // reuses slot 0
    sync_responses.push_back(index.search({queries[7], 6, std::nullopt}));
  };
  sync_ops(*sync_index);

  // The async run submits the same sequence up front: small batches
  // and a linger force coalescing around the write barriers, yet
  // responses must be bit-identical.
  serve::AsyncOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  serve::AsyncAmIndex async_index(*async_backend, options);
  std::vector<std::future<serve::SearchResponse>> searches;
  std::vector<std::future<serve::WriteReceipt>> writes;
  searches.push_back(async_index.submit({queries[0], 2, std::nullopt}));
  searches.push_back(async_index.submit({queries[1], 1, std::nullopt}));
  writes.push_back(async_index.submit_remove(2));
  searches.push_back(async_index.submit({queries[2], 1, std::nullopt}));
  writes.push_back(async_index.submit_update(4, fresh[0]));
  searches.push_back(async_index.submit({queries[3], 3, std::nullopt}));
  searches.push_back(async_index.submit({queries[4], 1, std::nullopt}));
  writes.push_back(async_index.submit_update(2, fresh[1]));
  searches.push_back(async_index.submit({queries[5], 2, std::nullopt}));
  writes.push_back(async_index.submit_remove(0));
  searches.push_back(async_index.submit({queries[6], 1, std::nullopt}));
  writes.push_back(async_index.submit_insert(fresh[2]));
  searches.push_back(async_index.submit({queries[7], 6, std::nullopt}));

  for (std::size_t i = 0; i < searches.size(); ++i) {
    expect_identical(searches[i].get(), sync_responses[i]);
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const auto receipt = writes[i].get();
    EXPECT_EQ(receipt.global_row, sync_receipts[i].global_row);
    EXPECT_EQ(receipt.bank, sync_receipts[i].bank);
    EXPECT_EQ(receipt.cost.pulses, sync_receipts[i].cost.pulses);
    EXPECT_DOUBLE_EQ(receipt.cost.energy_j, sync_receipts[i].cost.energy_j);
  }
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.write.submitted, writes.size());
  EXPECT_EQ(stats.write.served, writes.size());
  EXPECT_EQ(stats.search.served, searches.size());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AsyncWriteParityT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      const Backend backend = std::get<0>(info.param);
      const SearchFidelity fidelity = std::get<1>(info.param);
      return std::string(backend == Backend::kEngine ? "Engine" : "Banked") +
             (fidelity == SearchFidelity::kCircuit ? "Circuit" : "Nominal");
    });

TEST(AsyncWriteT, FailedWriteSurfacesThroughFutureAndMutatesNothing) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(4, 4, 4, 933);
  index.store(db);
  const auto q = data::random_int_vectors(1, 4, 4, 934).front();

  serve::EngineIndex twin;
  twin.configure(DistanceMetric::kHamming, 2);
  twin.store(db);
  twin.remove(1);
  const auto expected = twin.search({q, 3, std::nullopt});

  serve::AsyncAmIndex async_index(index);
  auto first = async_index.submit_remove(1);
  auto second = async_index.submit_remove(1);  // will be a double remove
  auto after = async_index.submit({q, 3, std::nullopt});
  EXPECT_EQ(first.get().global_row, 1u);
  EXPECT_THROW(second.get(), std::logic_error);
  // The failed write was a no-op (as in the synchronous sequence); the
  // search behind it still ran against the once-removed index.
  expect_identical(after.get(), expected);
}

TEST(AsyncWriteT, SubmitValidationRejectsMalformedWritesConsumingNothing) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(3, 4, 4, 935));
  serve::AsyncAmIndex async_index(index);
  EXPECT_THROW(async_index.submit_remove(3), std::out_of_range);
  EXPECT_THROW(async_index.submit_update(0, std::vector<int>(5, 1)),
               std::invalid_argument);
  EXPECT_THROW(async_index.submit_update(9, std::vector<int>(4, 1)),
               std::out_of_range);
  const auto stats = async_index.stats();
  EXPECT_EQ(stats.write.submitted, 0u);
  EXPECT_EQ(stats.search.submitted, 0u);
}

TEST(AsyncWriteT, AllRemovedIndexRejectsSearchAtSubmit) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(2, 4, 4, 936));
  serve::AsyncAmIndex async_index(index);
  async_index.submit_remove(0).get();
  async_index.submit_remove(1).get();  // applied: live_count is now 0
  const std::vector<int> q(4, 0);
  EXPECT_THROW(async_index.submit({q, 1, std::nullopt}), serve::EmptyIndex);
}

TEST(AsyncWriteT, QueuedFirstInsertEstablishesIndexForLaterSearches) {
  // An empty index comes alive through the queue: the search submitted
  // behind the first insert must not be rejected at submit (whether the
  // insert has applied yet is a race; the sequence is valid either way).
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  serve::AsyncAmIndex async_index(index);
  auto inserted = async_index.submit_insert({1, 2, 3, 0});
  auto searched = async_index.submit({std::vector<int>(4, 0), 1,
                                      std::nullopt});
  EXPECT_EQ(inserted.get().global_row, 0u);
  EXPECT_EQ(searched.get().hits.size(), 1u);
}

TEST(AsyncWriteT, SecondWrapperOverAnOwnedIndexThrows) {
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(3, 4, 4, 939));
  const std::vector<int> q(4, 0);

  serve::AsyncAmIndex first(index);
  // Exclusive ownership: a second wrapper would serve duplicate
  // ordinals and race the first one's dispatcher.
  EXPECT_THROW({ serve::AsyncAmIndex second(index); }, std::logic_error);
  // The failed claim left the first session fully intact.
  EXPECT_EQ(first.submit({q, 1, std::nullopt}).get().hits.size(), 1u);
  EXPECT_THROW(index.insert(std::vector<int>(4, 1)),
               serve::MutationWhileServed);
  first.shutdown();
  // ...and shutdown of the real owner releases the index as usual.
  EXPECT_EQ(index.search({q, 1, std::nullopt}).hits.size(), 1u);
}

TEST(AsyncWriteT, ConcurrentSearchersAndWritersDrainCleanly) {
  // The TSan target: several threads submitting searches race a thread
  // submitting updates; the in-order queue serializes execution, every
  // future completes, and no access to the index is unsynchronized.
  serve::EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  const auto db = data::random_int_vectors(8, 4, 4, 937);
  index.store(db);
  const auto queries = data::random_int_vectors(4, 4, 4, 938);

  serve::AsyncOptions options;
  options.max_batch = 4;
  options.max_wait_us = 50;
  options.queue_depth = 4096;
  serve::AsyncAmIndex async_index(index, options);

  constexpr int kSearchThreads = 3;
  constexpr int kSearchesPerThread = 40;
  constexpr int kWrites = 30;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> search_ok{0};
  for (int t = 0; t < kSearchThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSearchesPerThread; ++i) {
        try {
          auto future = async_index.submit(
              {queries[(t + i) % queries.size()], 2, std::nullopt});
          if (future.get().hits.size() == 2) {
            search_ok.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const serve::Overloaded&) {
        }
      }
    });
  }
  threads.emplace_back([&] {
    // Updates only (always valid on a live slot), cycling the rows.
    for (int i = 0; i < kWrites; ++i) {
      try {
        async_index.submit_update(static_cast<std::size_t>(i % 8),
                                  std::vector<int>(4, i % 4))
            .get();
      } catch (const serve::Overloaded&) {
      }
    }
  });
  for (auto& thread : threads) thread.join();
  async_index.shutdown();

  const auto stats = async_index.stats();
  EXPECT_EQ(stats.search.served, stats.search.submitted);
  EXPECT_EQ(stats.write.served, stats.write.submitted);
  EXPECT_EQ(search_ok.load(), stats.search.served);
  EXPECT_EQ(index.live_count(), 8u);
}

}  // namespace
}  // namespace ferex
