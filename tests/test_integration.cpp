// Integration & property tests across the full stack: CSP encoder ->
// crossbar -> LTA -> applications. These are the "does the system do what
// the paper claims" checks.
#include <gtest/gtest.h>

#include "core/ferex.hpp"
#include "data/datasets.hpp"
#include "ml/hdc.hpp"
#include "ml/knn.hpp"
#include "ml/quantize.hpp"

namespace ferex {
namespace {

using csp::DistanceMetric;

// Property: for every metric and random data, the circuit-level row
// currents (variation off) equal the software distances in unit currents.
struct MetricCase {
  DistanceMetric metric;
  int bits;
};

class CircuitEquivalence : public ::testing::TestWithParam<MetricCase> {};

TEST_P(CircuitEquivalence, RowCurrentsEqualSoftwareDistances) {
  const auto& p = GetParam();
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.circuit.fet.ss_mv_per_dec = 15.0;    // suppress leak: exactness check
  opt.circuit.opamp.output_res_ohm = 0.0;  // ideal clamp: exactness check
  opt.lta.offset_sigma_rel = 0.0;
  opt.encoder.max_fefets_per_cell = 6;
  opt.encoder.max_vds_multiple = 5;
  core::FerexEngine engine(opt);
  engine.configure(p.metric, p.bits);

  util::Rng rng(1234);
  const std::size_t rows = 12, dims = 24;
  const int levels = 1 << p.bits;
  std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(levels));
  }
  engine.store(db);

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> query(dims);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(levels));
    const auto currents = engine.array()->search(query);
    for (std::size_t r = 0; r < rows; ++r) {
      const double sensed = currents[r] / engine.array()->unit_current_a();
      const auto expected = static_cast<double>(
          ml::vector_distance(p.metric, query, db[r]));
      EXPECT_NEAR(sensed, expected, 0.05 + 0.002 * expected)
          << csp::to_string(p.metric) << " bits=" << p.bits << " row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, CircuitEquivalence,
    ::testing::Values(MetricCase{DistanceMetric::kHamming, 1},
                      MetricCase{DistanceMetric::kHamming, 2},
                      MetricCase{DistanceMetric::kManhattan, 1},
                      MetricCase{DistanceMetric::kManhattan, 2},
                      MetricCase{DistanceMetric::kEuclideanSquared, 1},
                      MetricCase{DistanceMetric::kEuclideanSquared, 2}),
    [](const auto& param_info) {
      return csp::to_string(param_info.param.metric) +
             std::to_string(param_info.param.bits) + "bit";
    });

TEST(Integration, KnnThroughFerexMatchesSoftwareKnn) {
  // KNN via iterative LTA on the array vs brute-force software KNN.
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.lta.offset_sigma_rel = 0.0;
  core::FerexEngine engine(opt);
  engine.configure(DistanceMetric::kManhattan, 2);

  util::Rng rng(99);
  const std::size_t rows = 20, dims = 16;
  std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
  util::Matrix<int> db_matrix(rows, dims, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t d = 0; d < dims; ++d) {
      db[r][d] = static_cast<int>(rng.uniform_below(4));
      db_matrix.at(r, d) = db[r][d];
    }
  }
  engine.store(db);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    std::vector<int> query(dims);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
    const auto hw = engine.search_hits_at(query, 5, trial);
    const auto sw =
        ml::knn_indices(DistanceMetric::kManhattan, db_matrix, query, 5);
    // Distances must agree rank-for-rank (indices may differ on ties).
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(ml::vector_distance(DistanceMetric::kManhattan, query,
                                    db[hw[i].global_row]),
                ml::vector_distance(DistanceMetric::kManhattan, query,
                                    db[sw[i]]));
    }
  }
}

TEST(Integration, HdcInferenceThroughArrayMatchesSoftware) {
  // Program HDC class prototypes into FeReX; classify test samples via
  // the array and compare against software nearest-prototype inference.
  data::SyntheticSpec spec;
  spec.feature_count = 48;
  spec.class_count = 5;
  spec.train_size = 250;
  spec.test_size = 60;
  spec.class_separation = 0.9;
  const auto ds = data::make_synthetic(spec, 21);

  ml::HdcOptions hdc_opt;
  hdc_opt.hypervector_dim = 256;
  hdc_opt.bits = 2;
  ml::HdcModel model(ds.feature_count, ds.class_count, hdc_opt);
  model.train(ds.train_x, ds.train_y);

  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.lta.offset_sigma_rel = 0.0;
  core::FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  std::vector<std::vector<int>> prototypes;
  for (std::size_t c = 0; c < ds.class_count; ++c) {
    const auto row = model.prototypes().row(c);
    prototypes.emplace_back(row.begin(), row.end());
  }
  engine.store(prototypes);

  std::size_t agreements = 0;
  for (std::size_t s = 0; s < ds.test_x.rows(); ++s) {
    const auto query = model.encode_query(ds.test_x.row(s));
    const auto hw_class = engine.search_hits_at(query, 1, s).front().global_row;
    const int sw_class = model.predict(DistanceMetric::kHamming,
                                       ds.test_x.row(s));
    if (static_cast<int>(hw_class) == sw_class) ++agreements;
  }
  // Exact agreement except possibly on distance ties.
  EXPECT_GE(agreements, ds.test_x.rows() - 3);
}

TEST(Integration, VariationDegradesButDoesNotDestroyAccuracy) {
  // A compact version of the Fig. 7 result: under the paper's variation
  // model the nearest neighbor is still found in the vast majority of
  // trials when the margin is >= 1 distance unit.
  core::FerexOptions ideal_opt, noisy_opt;
  ideal_opt.circuit.variation.enabled = false;
  ideal_opt.lta.offset_sigma_rel = 0.0;

  const std::size_t dims = 64;
  util::Rng rng(7);
  std::vector<int> base(dims);
  for (auto& v : base) v = static_cast<int>(rng.uniform_below(4));

  // Stored: the true neighbor at HD 5 and distractors at HD 6.
  auto perturb = [&](int flips, util::Rng& r) {
    auto vec = base;
    for (int f = 0; f < flips;) {
      const auto pos = r.uniform_below(dims);
      const int nv = static_cast<int>(r.uniform_below(4));
      if (nv != vec[pos]) {
        vec[pos] = nv;  // may alter HD by 1-2 bits; close enough for setup
        ++f;
      }
    }
    return vec;
  };

  std::size_t correct = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    core::FerexEngine engine(noisy_opt);  // variation ON (defaults)
    engine.configure(DistanceMetric::kHamming, 2);
    util::Rng trial_rng(1000 + t);
    std::vector<std::vector<int>> db;
    db.push_back(perturb(2, trial_rng));  // nearest
    for (int d = 0; d < 7; ++d) db.push_back(perturb(5, trial_rng));
    engine.store(db);
    if (engine.search_hits_at(base, 1, 0).front().global_row == 0) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / trials, 0.85);
}

TEST(Integration, ReconfigurationPreservesStoredData) {
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.lta.offset_sigma_rel = 0.0;
  opt.encoder.max_fefets_per_cell = 6;
  opt.encoder.max_vds_multiple = 5;  // Euclidean-2bit needs Vds up to 5V
  core::FerexEngine engine(opt);
  engine.configure(DistanceMetric::kHamming, 2);
  const std::vector<std::vector<int>> db{{0, 1, 2, 3}, {3, 2, 1, 0}};
  engine.store(db);
  engine.configure(DistanceMetric::kEuclideanSquared, 2);
  ASSERT_NE(engine.array(), nullptr);
  for (std::size_t r = 0; r < db.size(); ++r) {
    for (std::size_t d = 0; d < db[r].size(); ++d) {
      EXPECT_EQ(engine.array()->stored_value(r, d), db[r][d]);
    }
  }
}

}  // namespace
}  // namespace ferex
