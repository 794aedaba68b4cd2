// Unit + property tests for the composite (digit-decomposed) encoding
// path: codecs, composite distance exactness at bit widths the monolithic
// CSP cannot reach, and the engine integration.
#include <gtest/gtest.h>

#include "core/ferex.hpp"
#include "encode/composite.hpp"
#include "ml/knn.hpp"
#include "util/rng.hpp"

namespace ferex::encode {
namespace {

using csp::DistanceMetric;

TEST(ValueCodecT, BitSlicedDigitsAreBinaryExpansion) {
  const auto codec = ValueCodec::bit_sliced(3);
  EXPECT_EQ(codec.logical_levels(), 8u);
  EXPECT_EQ(codec.subcells(), 3u);
  EXPECT_EQ(codec.digit(5, 0), 1);  // 5 = 101b, LSB first
  EXPECT_EQ(codec.digit(5, 1), 0);
  EXPECT_EQ(codec.digit(5, 2), 1);
}

TEST(ValueCodecT, ThermometerDigitsAreMonotone) {
  const auto codec = ValueCodec::thermometer(2);
  EXPECT_EQ(codec.logical_levels(), 4u);
  EXPECT_EQ(codec.subcells(), 3u);
  // value v has exactly v leading ones.
  for (int v = 0; v < 4; ++v) {
    int ones = 0;
    for (std::size_t t = 0; t < 3; ++t) ones += codec.digit(v, t);
    EXPECT_EQ(ones, v);
    // ...and they are contiguous from digit 0.
    for (std::size_t t = 1; t < 3; ++t) {
      EXPECT_GE(codec.digit(v, t - 1), codec.digit(v, t));
    }
  }
}

TEST(ValueCodecT, ExpandConcatenatesPerElement) {
  const auto codec = ValueCodec::bit_sliced(2);
  const std::vector<int> logical{3, 0, 1};
  const auto physical = codec.expand(logical);
  EXPECT_EQ(physical, (std::vector<int>{1, 1, 0, 0, 1, 0}));
}

TEST(ValueCodecT, IdentityIsPassThrough) {
  const auto codec = ValueCodec::identity(4);
  EXPECT_EQ(codec.subcells(), 1u);
  const std::vector<int> v{2, 0, 3};
  EXPECT_EQ(codec.expand(v), v);
}

TEST(ValueCodecT, RejectsBadArguments) {
  EXPECT_THROW(ValueCodec::bit_sliced(0), std::invalid_argument);
  EXPECT_THROW(ValueCodec::bit_sliced(9), std::invalid_argument);
  EXPECT_THROW(ValueCodec::thermometer(7), std::invalid_argument);
  const auto codec = ValueCodec::bit_sliced(2);
  EXPECT_THROW(codec.digit(4, 0), std::out_of_range);
  EXPECT_THROW(codec.digit(-1, 0), std::out_of_range);
}

TEST(CompositeEncodingT, EuclideanIsNotSeparable) {
  EXPECT_FALSE(
      make_composite_encoding(DistanceMetric::kEuclideanSquared, 2));
}

// Property: for every (metric, bits) in the separable families, the
// composite cell's distance equals the reference metric for all value
// pairs. These include widths where the monolithic CSP is infeasible
// within any practical budget (3+ bits).
struct CompositeCase {
  DistanceMetric metric;
  int bits;
};

class CompositeProperty : public ::testing::TestWithParam<CompositeCase> {};

TEST_P(CompositeProperty, DistanceExactForAllValuePairs) {
  const auto& p = GetParam();
  const auto composite = make_composite_encoding(p.metric, p.bits);
  ASSERT_TRUE(composite.has_value());
  const int levels = 1 << p.bits;
  for (int a = 0; a < levels; ++a) {
    for (int b = 0; b < levels; ++b) {
      EXPECT_EQ(composite->nominal_distance(a, b),
                csp::reference_distance(p.metric, a, b))
          << csp::to_string(p.metric) << " bits=" << p.bits << " (" << a
          << "," << b << ")";
    }
  }
}

TEST_P(CompositeProperty, CellGrowthIsLinearNotExponential) {
  const auto& p = GetParam();
  const auto composite = make_composite_encoding(p.metric, p.bits);
  ASSERT_TRUE(composite.has_value());
  const std::size_t per_subcell = composite->base.fefets_per_cell();
  const std::size_t expected_subcells =
      p.metric == DistanceMetric::kHamming
          ? static_cast<std::size_t>(p.bits)
          : (std::size_t{1} << p.bits) - 1;
  EXPECT_EQ(composite->codec.subcells(), expected_subcells);
  EXPECT_EQ(composite->fefets_per_element(),
            per_subcell * expected_subcells);
}

INSTANTIATE_TEST_SUITE_P(
    SeparableMetrics, CompositeProperty,
    ::testing::Values(CompositeCase{DistanceMetric::kHamming, 1},
                      CompositeCase{DistanceMetric::kHamming, 2},
                      CompositeCase{DistanceMetric::kHamming, 3},
                      CompositeCase{DistanceMetric::kHamming, 4},
                      CompositeCase{DistanceMetric::kHamming, 6},
                      CompositeCase{DistanceMetric::kHamming, 8},
                      CompositeCase{DistanceMetric::kManhattan, 1},
                      CompositeCase{DistanceMetric::kManhattan, 2},
                      CompositeCase{DistanceMetric::kManhattan, 3},
                      CompositeCase{DistanceMetric::kManhattan, 4},
                      CompositeCase{DistanceMetric::kManhattan, 5}),
    [](const auto& param_info) {
      return csp::to_string(param_info.param.metric) +
             std::to_string(param_info.param.bits) + "bit";
    });

// ------------------------------------------------ engine integration ---

core::FerexOptions exact_options() {
  core::FerexOptions opt;
  opt.circuit.variation.enabled = false;
  opt.circuit.fet.ss_mv_per_dec = 15.0;
  opt.circuit.opamp.output_res_ohm = 0.0;
  opt.lta.offset_sigma_rel = 0.0;
  return opt;
}

TEST(CompositeEngine, ThreeBitHammingSearchMatchesSoftware) {
  core::FerexEngine engine(exact_options());
  engine.configure_composite(DistanceMetric::kHamming, 3);
  ASSERT_NE(engine.codec(), nullptr);
  EXPECT_EQ(engine.codec()->subcells(), 3u);

  util::Rng rng(5);
  const std::size_t rows = 10, dims = 12;
  std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(8));
  }
  engine.store(db);
  for (std::uint64_t trial = 0; trial < 15; ++trial) {
    std::vector<int> query(dims);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(8));
    const auto result = engine.search_hits_at(query, 1, trial).front();
    long long best = std::numeric_limits<long long>::max();
    for (const auto& row : db) {
      best = std::min(best,
                      ml::vector_distance(DistanceMetric::kHamming, query, row));
    }
    EXPECT_EQ(ml::vector_distance(DistanceMetric::kHamming, query,
                                  db[result.global_row]),
              best);
    EXPECT_EQ(result.nominal_distance, best);
  }
}

TEST(CompositeEngine, FourBitManhattanCircuitCurrentsExact) {
  core::FerexEngine engine(exact_options());
  engine.configure_composite(DistanceMetric::kManhattan, 4);
  ASSERT_NE(engine.codec(), nullptr);
  EXPECT_EQ(engine.codec()->subcells(), 15u);

  util::Rng rng(6);
  const std::size_t rows = 6, dims = 8;
  std::vector<std::vector<int>> db(rows, std::vector<int>(dims));
  for (auto& row : db) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_below(16));
  }
  engine.store(db);
  std::vector<int> query(dims);
  for (auto& v : query) v = static_cast<int>(rng.uniform_below(16));
  const auto currents = engine.row_currents(query);
  for (std::size_t r = 0; r < rows; ++r) {
    const double sensed = currents[r] / engine.sense_unit();
    EXPECT_NEAR(sensed,
                static_cast<double>(ml::vector_distance(
                    DistanceMetric::kManhattan, query, db[r])),
                0.08);
  }
}

TEST(CompositeEngine, ReconfigureBetweenMonolithicAndComposite) {
  core::FerexEngine engine(exact_options());
  engine.configure(DistanceMetric::kHamming, 2);  // monolithic
  engine.store({{0, 1}, {3, 2}});
  EXPECT_EQ(engine.codec(), nullptr);
  const std::vector<int> q{0, 2};
  const auto mono = engine.search_hits_at(q, 1, 0).front().nominal_distance;

  engine.configure_composite(DistanceMetric::kHamming, 2);  // composite
  ASSERT_NE(engine.codec(), nullptr);
  const auto comp = engine.search_hits_at(q, 1, 1).front().nominal_distance;
  EXPECT_EQ(mono, comp);  // same metric, same data, same answer

  engine.configure(DistanceMetric::kHamming, 2);  // and back
  EXPECT_EQ(engine.codec(), nullptr);
  EXPECT_EQ(engine.search_hits_at(q, 1, 2).front().nominal_distance, mono);
}

TEST(CompositeEngine, EuclideanCompositeThrows) {
  core::FerexEngine engine(exact_options());
  EXPECT_THROW(engine.configure_composite(DistanceMetric::kEuclideanSquared, 3),
               std::runtime_error);
}

}  // namespace
}  // namespace ferex::encode
