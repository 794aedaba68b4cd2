// Unit tests for the circuit substrate: parasitics scaling, op-amp
// interface, LTA decisions under noise, the crossbar array (programming,
// search currents, equivalence with the single-device model), and the
// energy/delay model's Fig. 6 scaling laws.
#include <gtest/gtest.h>

#include "circuit/crossbar.hpp"
#include "circuit/energy_model.hpp"
#include "circuit/interface.hpp"
#include "circuit/lta.hpp"
#include "circuit/parasitics.hpp"
#include "csp/feasibility.hpp"
#include "util/stats.hpp"
#include "device/one_fefet_one_r.hpp"
#include "encode/encoder.hpp"

namespace ferex::circuit {
namespace {

using csp::DistanceMatrix;
using csp::DistanceMetric;

encode::CellEncoding hamming2_encoding() {
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 2);
  auto enc = encode::encode_distance_matrix(dm);
  EXPECT_TRUE(enc.has_value());
  return *enc;
}

CrossbarConfig ideal_config() {
  CrossbarConfig config;
  config.variation.enabled = false;
  return config;
}

/// Variation off AND effectively zero subthreshold leakage: checks the
/// pure current-arithmetic behaviour of the array.
CrossbarConfig exact_config() {
  CrossbarConfig config = ideal_config();
  config.fet.ss_mv_per_dec = 15.0;   // leak ~Isat*1e-20 at one margin
  config.opamp.output_res_ohm = 0.0;  // ideal ScL clamp
  return config;
}

// ------------------------------------------------------- parasitics ---

TEST(ParasiticsT, SclLoadGrowsWithColumns) {
  const Parasitics small(64, 128), large(64, 1024);
  EXPECT_GT(large.scl_cap_f(), small.scl_cap_f());
  EXPECT_GT(large.scl_res_ohm(), small.scl_res_ohm());
  EXPECT_GT(large.scl_tau_s(), small.scl_tau_s());
}

TEST(ParasiticsT, DlLoadGrowsWithRows) {
  const Parasitics small(16, 128), large(256, 128);
  EXPECT_GT(large.dl_cap_f(), small.dl_cap_f());
  EXPECT_DOUBLE_EQ(large.scl_cap_f(), small.scl_cap_f());
}

// -------------------------------------------------------- interface ---

TEST(InterfaceT, SettleTimeIncreasesWithLoad) {
  const InterfaceCircuit amp;
  EXPECT_GT(amp.settle_time_s(1e-12), amp.settle_time_s(100e-15));
  EXPECT_GT(amp.settle_time_s(100e-15), 0.0);
}

TEST(InterfaceT, ResidualVoltageProportionalToCurrent) {
  const InterfaceCircuit amp;
  const double v1 = amp.residual_scl_voltage(1e-6);
  const double v2 = amp.residual_scl_voltage(2e-6);
  EXPECT_NEAR(v2 / v1, 2.0, 1e-9);
  EXPECT_LT(v1, 0.01);  // clamp keeps the node within a few mV
}

TEST(InterfaceT, EnergyScalesWithDuration) {
  const InterfaceCircuit amp;
  EXPECT_NEAR(amp.energy_j(2e-9) / amp.energy_j(1e-9), 2.0, 1e-9);
}

// -------------------------------------------------------------- LTA ---

TEST(LtaT, IdealDecisionPicksMinimum) {
  const LtaCircuit lta;
  const std::vector<double> currents{3e-7, 1e-7, 2e-7};
  const auto d = lta.decide(currents, 1e-7, nullptr);
  EXPECT_EQ(d.winner, 1u);
  EXPECT_NEAR(d.margin_a, 1e-7, 1e-12);
}

TEST(LtaT, NoiseCausesErrorsOnlyAtSmallMargins) {
  LtaParams params;
  params.offset_sigma_rel = 0.5;  // deliberately noisy comparator
  const LtaCircuit lta(params);
  util::Rng rng(77);
  const double unit = 1e-7;
  // Margin of 4 units: virtually never flips. Margin of 0.1 unit: often.
  int wrong_wide = 0, wrong_tight = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::vector<double> wide{1e-7, 5e-7};
    const std::vector<double> tight{1e-7, 1.1e-7};
    if (lta.decide(wide, unit, &rng).winner != 0) ++wrong_wide;
    if (lta.decide(tight, unit, &rng).winner != 0) ++wrong_tight;
  }
  EXPECT_LT(wrong_wide, 20);
  EXPECT_GT(wrong_tight, 300);
}

TEST(LtaT, DecideKMasksPreviousWinners) {
  const LtaCircuit lta;
  const std::vector<double> currents{5e-7, 1e-7, 3e-7, 2e-7};
  const auto top3 = lta.decide_k_detailed(currents, 1e-7, 3, nullptr);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].winner, 1u);
  EXPECT_EQ(top3[1].winner, 3u);
  EXPECT_EQ(top3[2].winner, 2u);
}

TEST(LtaT, DelayGrowsLogarithmically) {
  const LtaCircuit lta;
  const double d16 = lta.delay_s(16);
  const double d256 = lta.delay_s(256);
  EXPECT_GT(d256, d16);
  // log2(256)/log2(16) = 2: the *increment* doubles, not the total.
  EXPECT_LT(d256 / d16, 2.0);
}

TEST(LtaT, RejectsDegenerateInput) {
  const LtaCircuit lta;
  EXPECT_THROW(lta.decide({}, 1e-7, nullptr), std::invalid_argument);
  const std::vector<double> one{1e-7};
  EXPECT_THROW(lta.decide_k_detailed(one, 1e-7, 2, nullptr),
               std::invalid_argument);
  EXPECT_THROW(lta.decide_k_detailed(one, 1e-7, 0, nullptr),
               std::invalid_argument);
}

// --------------------------------------------------------- crossbar ---

TEST(Crossbar, NominalDistanceMatchesSoftwareReference) {
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  util::Rng rng(1);
  CrossbarArray array(4, 8, enc, ladder, ideal_config(), rng);
  util::Rng data_rng(2);
  std::vector<std::vector<int>> rows(4, std::vector<int>(8));
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<int>(data_rng.uniform_below(4));
    array.program_row(static_cast<std::size_t>(&row - rows.data()), row);
  }
  std::vector<int> query(8);
  for (auto& v : query) v = static_cast<int>(data_rng.uniform_below(4));
  for (std::size_t r = 0; r < 4; ++r) {
    int expected = 0;
    for (std::size_t d = 0; d < 8; ++d) {
      expected += csp::reference_distance(DistanceMetric::kHamming, query[d],
                                          rows[r][d]);
    }
    EXPECT_EQ(array.nominal_distance(query, r), expected);
  }
}

TEST(Crossbar, SearchCurrentsAreIntegerMultiplesOfUnit) {
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  util::Rng rng(3);
  CrossbarArray array(4, 16, enc, ladder, exact_config(), rng);
  util::Rng data_rng(4);
  std::vector<std::vector<int>> rows(4, std::vector<int>(16));
  for (std::size_t r = 0; r < 4; ++r) {
    for (auto& v : rows[r]) v = static_cast<int>(data_rng.uniform_below(4));
    array.program_row(r, rows[r]);
  }
  std::vector<int> query(16);
  for (auto& v : query) v = static_cast<int>(data_rng.uniform_below(4));
  const auto currents = array.search(query);
  for (std::size_t r = 0; r < 4; ++r) {
    const double multiple = currents[r] / array.unit_current_a();
    EXPECT_NEAR(multiple, array.nominal_distance(query, r), 0.05)
        << "row " << r;
  }
}

TEST(Crossbar, AgreesWithSingleDeviceModel) {
  // One cell, one row: the array current must equal the sum of
  // OneFeFetOneR device currents under the same biases.
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  CrossbarConfig config = ideal_config();
  config.opamp.output_res_ohm = 0.0;  // exact clamp for the comparison
  util::Rng rng(5);
  CrossbarArray array(1, 1, enc, ladder, config, rng);
  const std::vector<int> stored{2};
  array.program_row(0, stored);
  const std::vector<int> query{1};
  const double array_current = array.search(query).front();

  double expected = 0.0;
  for (std::size_t i = 0; i < enc.fefets_per_cell(); ++i) {
    device::OneFeFetOneR cell(
        ladder.vth(static_cast<std::size_t>(enc.store_level(2, i))),
        config.cell, config.fet);
    expected += cell.current_at_multiple(
        ladder.vsearch(static_cast<std::size_t>(enc.search_level(1, i))),
        enc.vds_multiple(1, i));
  }
  EXPECT_NEAR(array_current, expected, expected * 1e-9);
}

TEST(Crossbar, VariationPerturbsProgrammedVth) {
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  CrossbarConfig config;  // variation enabled (54 mV)
  util::Rng rng(6);
  CrossbarArray array(8, 32, enc, ladder, config, rng);
  std::vector<int> row(32, 1);
  array.program_row(0, row);
  util::RunningStats offsets;
  for (std::size_t d = 0; d < 32; ++d) {
    for (std::size_t i = 0; i < enc.fefets_per_cell(); ++i) {
      const double nominal = ladder.vth(
          static_cast<std::size_t>(enc.store_level(1, i)));
      offsets.add(array.device_vth(0, d, i) - nominal);
    }
  }
  EXPECT_GT(offsets.stddev(), 0.03);
  EXPECT_LT(offsets.stddev(), 0.09);
}

TEST(Crossbar, PreisachProgrammingPathMatchesDirect) {
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  CrossbarConfig direct = ideal_config();
  CrossbarConfig preisach = ideal_config();
  preisach.use_preisach_programming = true;
  util::Rng rng_a(7), rng_b(7);
  CrossbarArray a(2, 4, enc, ladder, direct, rng_a);
  CrossbarArray b(2, 4, enc, ladder, preisach, rng_b);
  const std::vector<int> row{0, 1, 2, 3};
  a.program_row(0, row);
  b.program_row(0, row);
  for (std::size_t d = 0; d < 4; ++d) {
    for (std::size_t i = 0; i < enc.fefets_per_cell(); ++i) {
      EXPECT_NEAR(a.device_vth(0, d, i), b.device_vth(0, d, i), 6e-3);
    }
  }
}

TEST(Crossbar, SubthresholdLeakageIsSmallAndCommonMode) {
  // With the realistic 60 mV/dec device, OFF cells near the ladder margin
  // leak a little extra current. The leak must stay well under one unit
  // current per row here, and — crucially for the LTA, which senses
  // *differences* — must not flip the ordering of rows whose distances
  // differ by one unit.
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  util::Rng rng(11);
  CrossbarArray array(3, 32, enc, ladder, ideal_config(), rng);
  util::Rng data_rng(12);
  std::vector<int> base(32);
  for (auto& v : base) v = static_cast<int>(data_rng.uniform_below(4));
  auto near = base;  // Hamming distance 1 from base
  near[0] ^= 1;
  auto far = base;   // Hamming distance 2 from base
  far[0] ^= 1;
  far[1] ^= 1;
  array.program_row(0, base);
  array.program_row(1, near);
  array.program_row(2, far);
  const auto currents = array.search(base);
  const double unit = array.unit_current_a();
  EXPECT_LT(currents[0] / unit, 0.5);           // leak bounded
  EXPECT_LT(currents[0], currents[1]);          // ordering preserved
  EXPECT_LT(currents[1], currents[2]);
  EXPECT_NEAR(currents[1] / unit, 1.0, 0.5);
  EXPECT_NEAR(currents[2] / unit, 2.0, 0.5);
}

TEST(Crossbar, UnclampedSourceLineCorruptsDistances) {
  // Ablation: with the op-amp clamp off, large row currents depress Vds
  // and the sensed distance falls below nominal.
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  CrossbarConfig clamped = ideal_config();
  CrossbarConfig unclamped = ideal_config();
  unclamped.use_opamp_clamp = false;
  util::Rng rng_a(8), rng_b(8);
  CrossbarArray a(1, 64, enc, ladder, clamped, rng_a);
  CrossbarArray b(1, 64, enc, ladder, unclamped, rng_b);
  const std::vector<int> stored(64, 0);
  a.program_row(0, stored);
  b.program_row(0, stored);
  const std::vector<int> query(64, 3);  // large distance -> large current
  const double i_clamped = a.search(query).front();
  const double i_unclamped = b.search(query).front();
  // The bare ScL is where a plain fixed-point solve oscillates; a capped,
  // non-converged solve could leave any current (even 0) behind, so the
  // corruption only counts when the solve actually converged.
  EXPECT_EQ(b.scl_solve_stats().non_converged, 0u);
  EXPECT_GT(i_unclamped, 0.0);
  EXPECT_LT(i_unclamped, i_clamped * 0.98);
}

TEST(Crossbar, RejectsBadGeometryAndValues) {
  const auto enc = hamming2_encoding();
  const device::VoltageLadder ladder(enc.ladder_levels());
  util::Rng rng(9);
  EXPECT_THROW(CrossbarArray(0, 4, enc, ladder, ideal_config(), rng),
               std::invalid_argument);
  const device::VoltageLadder short_ladder(enc.ladder_levels() - 1);
  EXPECT_THROW(CrossbarArray(2, 4, enc, short_ladder, ideal_config(), rng),
               std::invalid_argument);
  CrossbarArray array(2, 4, enc, ladder, ideal_config(), rng);
  const std::vector<int> bad_len{0, 1};
  EXPECT_THROW(array.program_row(0, bad_len), std::invalid_argument);
  const std::vector<int> bad_val{0, 1, 2, 9};
  EXPECT_THROW(array.program_row(0, bad_val), std::out_of_range);
  const std::vector<int> ok{0, 1, 2, 3};
  array.program_row(0, ok);
  EXPECT_THROW(array.program_row(5, ok), std::out_of_range);
  const std::vector<int> bad_query{0, 1, 2, 9};
  EXPECT_THROW(array.search(bad_query), std::out_of_range);
}

// ----------------------------------------------------- energy model ---

TEST(EnergyModel, EnergyPerBitDecreasesWithRows) {
  // Fig. 6(a): more rows amortize the LTA/driver overheads.
  const EnergyDelayModel model;
  SearchOpSpec small, large;
  small.rows = 16;
  large.rows = 256;
  small.dims = large.dims = 256;
  const double e_small = model.search_op(small).energy_per_bit_j(small);
  const double e_large = model.search_op(large).energy_per_bit_j(large);
  EXPECT_LT(e_large, e_small);
}

TEST(EnergyModel, DelayIncreasesWithArraySize) {
  // Fig. 6(b): total delay grows gradually as the array scales.
  const EnergyDelayModel model;
  SearchOpSpec small, large;
  small.rows = 16;
  small.dims = 64;
  large.rows = 256;
  large.dims = 1024;
  EXPECT_GT(model.search_op(large).total_delay_s(),
            model.search_op(small).total_delay_s());
}

TEST(EnergyModel, SclSettlingDominatesDelay) {
  // The paper: ~60 % of the total delay comes from ScL stabilization.
  const EnergyDelayModel model;
  SearchOpSpec spec;
  spec.rows = 64;
  spec.dims = 512;
  const auto cost = model.search_op(spec);
  const double fraction = cost.scl_settle_s / cost.total_delay_s();
  EXPECT_GT(fraction, 0.45);
  EXPECT_LT(fraction, 0.75);
}

TEST(EnergyModel, EnergyPerBitInFemtojouleRange) {
  const EnergyDelayModel model;
  SearchOpSpec spec;
  spec.rows = 64;
  spec.dims = 512;
  const double e_bit = model.search_op(spec).energy_per_bit_j(spec);
  EXPECT_GT(e_bit, 0.01e-15);
  EXPECT_LT(e_bit, 100e-15);
}

TEST(EnergyModel, ThroughputIsInverseDelay) {
  const EnergyDelayModel model;
  SearchOpSpec spec;
  const auto cost = model.search_op(spec);
  EXPECT_NEAR(model.throughput_qps(spec) * cost.total_delay_s(), 1.0, 1e-9);
}

}  // namespace
}  // namespace ferex::circuit
