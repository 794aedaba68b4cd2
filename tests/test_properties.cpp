// Cross-module randomized property tests: invariants that must hold for
// arbitrary (seeded) inputs, complementing the per-module example-based
// tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ferex.hpp"
#include "csp/decompose.hpp"
#include "csp/feasibility.hpp"
#include "encode/composite.hpp"
#include "encode/encoder.hpp"
#include "ml/knn.hpp"
#include "ml/quantize.hpp"
#include "util/rng.hpp"

namespace ferex {
namespace {

using csp::DistanceMetric;

// ------------------------------------------------ metric invariants ---

class MetricProperty : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(MetricProperty, IdentityOfIndiscernibles) {
  const auto metric = GetParam();
  for (int v = 0; v < 16; ++v) {
    EXPECT_EQ(csp::reference_distance(metric, v, v), 0);
  }
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      if (a != b) {
        EXPECT_GT(csp::reference_distance(metric, a, b), 0);
      }
    }
  }
}

TEST_P(MetricProperty, Symmetry) {
  const auto metric = GetParam();
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(csp::reference_distance(metric, a, b),
                csp::reference_distance(metric, b, a));
    }
  }
}

TEST_P(MetricProperty, TriangleInequalityWhereExpected) {
  const auto metric = GetParam();
  if (metric == DistanceMetric::kEuclideanSquared) {
    GTEST_SKIP() << "squared Euclidean deliberately violates the triangle "
                    "inequality";
  }
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      for (int c = 0; c < 8; ++c) {
        EXPECT_LE(csp::reference_distance(metric, a, c),
                  csp::reference_distance(metric, a, b) +
                      csp::reference_distance(metric, b, c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricProperty,
                         ::testing::Values(DistanceMetric::kHamming,
                                           DistanceMetric::kManhattan,
                                           DistanceMetric::kEuclideanSquared),
                         [](const auto& param_info) {
                           return csp::to_string(param_info.param);
                         });

// ------------------------------------- random custom DM feasibility ---

TEST(RandomDmProperty, FeasibleEncodingsAlwaysRealizeTheirDm) {
  // For random small DMs: whenever the encoder reports success, the
  // encoding must reproduce the matrix exactly; when it reports proven
  // infeasibility, no solution may exist at that k (checked by solving
  // with the alternate constraint-3 path).
  util::Rng rng(2024);
  int feasible_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    util::Matrix<int> values(3, 3, 0);
    for (std::size_t sch = 0; sch < 3; ++sch) {
      for (std::size_t sto = 0; sto < 3; ++sto) {
        values.at(sch, sto) = static_cast<int>(rng.uniform_below(4));
      }
    }
    const auto dm = csp::DistanceMatrix::custom(
        values, "random-" + std::to_string(trial));
    encode::EncoderOptions opt;
    opt.max_fefets_per_cell = 4;
    opt.max_vds_multiple = 2;
    const auto enc = encode::encode_distance_matrix(dm, opt);
    if (enc) {
      ++feasible_seen;
      EXPECT_TRUE(enc->realizes(dm)) << dm.name();
    }
  }
  EXPECT_GT(feasible_seen, 5);  // the family is not trivially infeasible
}

TEST(RandomDmProperty, Ac3AndBacktrackingAgreeOnFeasibility) {
  util::Rng rng(777);
  const std::vector<int> cr{1, 2};
  for (int trial = 0; trial < 30; ++trial) {
    util::Matrix<int> values(3, 3, 0);
    for (int& v : values.flat()) {
      v = static_cast<int>(rng.uniform_below(4));
    }
    const auto dm = csp::DistanceMatrix::custom(values, "agree");
    for (int k = 1; k <= 3; ++k) {
      csp::FeasibilityOptions with, without;
      without.use_ac3 = false;
      EXPECT_EQ(csp::detect_feasibility(dm, k, cr, with).feasible,
                csp::detect_feasibility(dm, k, cr, without).feasible)
          << "trial " << trial << " k=" << k;
    }
  }
}

// ------------------------------------------- decomposition algebra ---

TEST(DecomposeProperty, EveryTupleSumsToValueAndUsesAllowedCurrents) {
  util::Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const int k = 1 + static_cast<int>(rng.uniform_below(4));
    const int value = static_cast<int>(rng.uniform_below(7));
    std::vector<int> cr;
    for (int c = 1; c <= 3; ++c) {
      if (rng.bernoulli(0.7)) cr.push_back(c);
    }
    if (cr.empty()) cr.push_back(1);
    for (const auto& tuple : csp::decompose_value(k, value, cr)) {
      int sum = 0;
      for (int c : tuple) {
        sum += c;
        EXPECT_TRUE(c == 0 ||
                    std::find(cr.begin(), cr.end(), c) != cr.end());
      }
      EXPECT_EQ(sum, value);
    }
  }
}

TEST(DecomposeProperty, CountAgreesWithEnumerationOnRandomInstances) {
  util::Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    const int k = 1 + static_cast<int>(rng.uniform_below(4));
    const int value = static_cast<int>(rng.uniform_below(8));
    const std::vector<int> cr{1, static_cast<int>(2 + rng.uniform_below(3))};
    EXPECT_EQ(csp::count_decompositions(k, value, cr),
              csp::decompose_value(k, value, cr).size());
  }
}

// -------------------------------------------- engine end-to-end NN ---

TEST(EngineProperty, WinnerNeverBeatenBySoftwareScan) {
  // At exact fidelity the engine's winner must always achieve the global
  // software minimum distance — for random databases, queries, metrics
  // and both encoding paths.
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.circuit.fet.ss_mv_per_dec = 15.0;
  opt.circuit.opamp.output_res_ohm = 0.0;
  opt.lta.offset_sigma_rel = 0.0;
  util::Rng rng(808);
  for (int round = 0; round < 6; ++round) {
    const auto metric =
        std::array{DistanceMetric::kHamming, DistanceMetric::kManhattan,
                   DistanceMetric::kEuclideanSquared}[round % 3];
    const bool composite = round >= 3;
    core::FerexEngine engine(opt);
    if (composite) {
      if (metric == DistanceMetric::kEuclideanSquared) continue;
      engine.configure_composite(metric, 3);
    } else {
      engine.configure(metric, 2);
    }
    const int levels = 1 << engine.bits();
    const std::size_t rows = 8, dims = 10;
    std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
    for (auto& row : db) {
      for (auto& v : row) v = static_cast<int>(rng.uniform_below(levels));
    }
    engine.store(db);
    for (std::uint64_t q = 0; q < 10; ++q) {
      std::vector<int> query(dims);
      for (auto& v : query) v = static_cast<int>(rng.uniform_below(levels));
      const auto winner = engine.search_hits_at(query, 1, q).front().global_row;
      long long best = std::numeric_limits<long long>::max();
      for (const auto& row : db) {
        best = std::min(best, ml::vector_distance(metric, query, row));
      }
      EXPECT_EQ(ml::vector_distance(metric, query, db[winner]), best);
    }
  }
}

TEST(EngineProperty, SearchKPrefixStable) {
  // The top-k ranking must be prefix-consistent: the first j hits at
  // k = 5 equal (by distance) the hits at k = j.
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.lta.offset_sigma_rel = 0.0;
  core::FerexEngine engine(opt);
  engine.configure(DistanceMetric::kManhattan, 2);
  util::Rng rng(909);
  std::vector<std::vector<int>> db(12, std::vector<int>(8));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(4));
  }
  engine.store(db);
  std::vector<int> query(8);
  for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
  const auto top5 = engine.search_hits_at(query, 5, 0);
  for (std::size_t j = 1; j <= 5; ++j) {
    const auto topj = engine.search_hits_at(query, j, j);
    for (std::size_t i = 0; i < j; ++i) {
      EXPECT_EQ(ml::vector_distance(DistanceMetric::kManhattan, query,
                                    db[topj[i].global_row]),
                ml::vector_distance(DistanceMetric::kManhattan, query,
                                    db[top5[i].global_row]));
    }
  }
}

// ----------------------------------------------- quantizer algebra ---

TEST(QuantizerProperty, MonotoneNonDecreasing) {
  util::Rng rng(10);
  std::vector<double> samples(5000);
  for (auto& v : samples) v = rng.gaussian(0.0, 2.0);
  const auto q = ml::Quantizer::fit(samples, 3);
  double prev_value = -10.0;
  int prev_level = 0;
  for (int i = 0; i < 200; ++i) {
    const double v = -10.0 + i * 0.1;
    const int level = q.quantize(v);
    EXPECT_GE(level, prev_level);
    EXPECT_GE(v, prev_value);
    prev_level = level;
    prev_value = v;
  }
}

TEST(QuantizerProperty, AllLevelsReachable) {
  util::Rng rng(11);
  for (int bits = 1; bits <= 4; ++bits) {
    std::vector<double> samples(4000);
    for (auto& v : samples) v = rng.uniform(-1.0, 1.0);
    const auto q = ml::Quantizer::fit(samples, bits);
    std::vector<bool> seen(static_cast<std::size_t>(q.levels()), false);
    for (double v : samples) seen[q.quantize(v)] = true;
    for (bool s : seen) EXPECT_TRUE(s) << "bits=" << bits;
  }
}

}  // namespace
}  // namespace ferex
