// Equivalence suite for the flattened search hot path: the optimized
// kernels (cached bias tables + LUT + flat SoA row solve, row and bank
// fan-out across the worker pool) must reproduce the retained
// reference kernels bit for bit across metric x bits x fidelity x clamp
// x row-length configurations. The reference always runs the portable
// row pass and search() the widest one the CPU has, so on an AVX2 or
// AVX-512 host the same suite shows results do not depend on the
// instruction set; RowPasses checks every other compiled pass the CPU can
// run against the portable one directly.
// The ScL solve counters must account for every solve, every solve must
// converge in a pinned number of passes, and every row's current must
// match an independent bisection of the same cell model, with the clamp
// on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/row_pass.hpp"
#include "core/ferex.hpp"
#include "core/profiler.hpp"
#include "data/datasets.hpp"
#include "encode/encoder.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/rng.hpp"

namespace ferex {
namespace {

using csp::DistanceMetric;

std::vector<serve::SearchRequest> requests_for(
    const std::vector<std::vector<int>>& queries) {
  std::vector<serve::SearchRequest> requests;
  for (const auto& q : queries) requests.emplace_back(q);
  return requests;
}

void expect_same_best(const serve::SearchResponse& a,
                      const serve::SearchResponse& b) {
  EXPECT_EQ(a.best().global_row, b.best().global_row);
  EXPECT_EQ(a.best().bank, b.best().bank);
  EXPECT_EQ(a.best().sensed_current_a, b.best().sensed_current_a);
  EXPECT_EQ(a.best().margin_a, b.best().margin_a);
  EXPECT_EQ(a.best().nominal_distance, b.best().nominal_distance);
}

struct KernelCase {
  DistanceMetric metric;
  int bits;
  bool clamp;
  bool variation;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const auto& c = info.param;
  return csp::to_string(c.metric) + std::to_string(c.bits) +
         (c.clamp ? "_clamped" : "_unclamped") +
         (c.variation ? "_var" : "_novar");
}

class KernelEquivalence : public testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, OptimizedSearchMatchesReferenceBitForBit) {
  const auto& c = GetParam();
  const auto dm = csp::DistanceMatrix::make(c.metric, c.bits);
  const auto enc = encode::encode_distance_matrix(dm);
  ASSERT_TRUE(enc.has_value());

  circuit::CrossbarConfig config;
  config.variation.enabled = c.variation;
  config.use_opamp_clamp = c.clamp;
  const device::VoltageLadder ladder(enc->ladder_levels(), 0.2,
                                     1.5 / static_cast<double>(
                                               enc->ladder_levels()));
  // With 2, 3 or 4 FeFETs per cell these rows hold 2 to 36 devices:
  // rows shorter than one four- or eight-device block, full eight-device
  // blocks with and without a tail, and every remainder mod 8 that the
  // cell width allows, with the clamp on and off.
  for (std::size_t dims = 1; dims <= 9; ++dims) {
    SCOPED_TRACE("dims " + std::to_string(dims));
    util::Rng rng(7);
    const std::size_t rows = 12;
    circuit::CrossbarArray array(rows, dims, *enc, ladder, config, rng);
    const auto db = data::random_int_vectors(
        rows + 2, dims, static_cast<int>(enc->stored_count()), 11);
    for (std::size_t r = 0; r < rows; ++r) array.program_row(r, db[r]);
    // Rewrite a row, erase one and append one: search() reads each row's
    // safe potential from the array, while search_reference() derives it
    // afresh, so one left stale by a write moves the two apart.
    array.overwrite_row(2, db[rows]);
    array.erase_row(5);
    array.append_row(db[rows + 1], rng);

    const auto queries = data::random_int_vectors(
        8, dims, static_cast<int>(enc->search_count()), 13);
    for (const auto& q : queries) {
      const auto reference = array.search_reference(q);
      const auto optimized = array.search(q);
      const auto optimized_parallel = array.search(q, /*parallel_rows=*/true);
      ASSERT_EQ(reference.size(), rows + 1);
      for (std::size_t r = 0; r < rows + 1; ++r) {
        // Exact double equality: the kernels share the per-cell
        // expression and the lane order of the sum, so any drift is a
        // real table, gather or instruction-set bug.
        EXPECT_EQ(optimized[r], reference[r]) << "row " << r;
        EXPECT_EQ(optimized_parallel[r], reference[r]) << "row " << r;
      }

      const auto nominal_ref = array.nominal_distances_reference(q);
      const auto nominal_opt = array.nominal_distances(q);
      EXPECT_EQ(nominal_opt, nominal_ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricBitsClamp, KernelEquivalence,
    testing::Values(KernelCase{DistanceMetric::kHamming, 1, true, true},
                    KernelCase{DistanceMetric::kHamming, 2, true, true},
                    KernelCase{DistanceMetric::kHamming, 2, false, true},
                    KernelCase{DistanceMetric::kHamming, 2, true, false},
                    KernelCase{DistanceMetric::kManhattan, 1, true, true},
                    KernelCase{DistanceMetric::kManhattan, 2, true, true},
                    KernelCase{DistanceMetric::kManhattan, 2, false, false},
                    KernelCase{DistanceMetric::kEuclideanSquared, 2, true,
                               true},
                    KernelCase{DistanceMetric::kEuclideanSquared, 2, false,
                               true}),
    case_name);

TEST(RowPassDispatch, SearchRunsTheWidestPassTheCpuHas) {
  // KernelEquivalence compares search() with the portable pass; if the
  // dispatch fell back to a narrower pass than the CPU can run, the widest
  // pass would go untested there, and RowPasses only checks listed passes.
  std::vector<std::string> expected{"portable"};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) expected.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) expected.push_back("avx512");
#endif
  std::vector<std::string> listed;
  for (const auto& pass : circuit::detail::runnable_row_passes()) {
    listed.emplace_back(pass.isa);
  }
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(circuit::row_pass_isa(), expected.back());
}

/// The per-device spans of one row, as a row pass reads them.
struct RowSpans {
  std::vector<double> vgs, vds, gate_factor, vth, inv_r, vth_factor;

  circuit::detail::RowDevices devices() const {
    return {vgs.data(),   vds.data(),   gate_factor.data(),
            vth.data(),   inv_r.data(), vth_factor.data(),
            vgs.size()};
  }
};

/// A row of `count` random devices spread over every regime a cell takes
/// in the potentials RowPasses uses: cut off (Vds = 0, or below the ScL
/// potential), saturated, subthreshold above and below the leakage floor,
/// and limited by the series resistor.
RowSpans random_row(std::size_t count, double alpha,
                    const circuit::CrossbarConfig& config, util::Rng& rng) {
  RowSpans row;
  for (std::size_t j = 0; j < count; ++j) {
    const double vgs = rng.uniform(0.2, 1.7);
    const double vth = vgs + rng.uniform(-0.3, 0.6);
    row.vgs.push_back(vgs);
    row.vds.push_back(config.cell.vds_unit_v *
                      static_cast<double>(rng.uniform_int(0, 3)));
    row.gate_factor.push_back(std::exp(vgs * alpha));
    row.vth.push_back(vth);
    row.inv_r.push_back(std::pow(10.0, -rng.uniform(4.0, 7.0)));
    row.vth_factor.push_back(std::exp(-vth * alpha));
  }
  return row;
}

TEST(RowPasses, EveryCompiledPassMatchesThePortablePassBitForBit) {
  // Rows of 1 to 40 devices: every remainder mod 4 and mod 8 of the
  // zero-padded tail, rows shorter than one block and rows of several
  // full blocks. Each pass is compared with the portable one at Vscl = 0,
  // at the middle of the Newton bracket [0, R*I(0)] with the clamp on and
  // off, and where a device changes regime: the unit drain bias (devices
  // at Vds = vds_unit cut off) and the largest Vgs - Vth in the row (the
  // device deepest in saturation turns subthreshold).
  const circuit::CrossbarConfig config;
  const double alpha = std::log(10.0) / (config.fet.ss_mv_per_dec * 1e-3);
  const circuit::detail::CellModel model{config.fet.isat_a,
                                         config.fet.min_leak_a, alpha};
  const auto passes = circuit::detail::runnable_row_passes();
  ASSERT_STREQ(passes.front().isa, "portable");
  util::Rng rng(71);
  for (std::size_t count = 1; count <= 40; ++count) {
    const auto spans = random_row(count, alpha, config, rng);
    const auto row = spans.devices();
    const double i0 = passes.front().run(row, model, 0.0, 1.0).current_a;
    double overdrive = 0.0;
    for (std::size_t j = 0; j < count; ++j) {
      overdrive = std::max(overdrive, spans.vgs[j] - spans.vth[j]);
    }
    const double potentials[] = {0.0,
                                 0.5 * config.opamp.output_res_ohm * i0,
                                 0.5 * config.unclamped_source_res_ohm * i0,
                                 config.cell.vds_unit_v, overdrive};
    for (const double v : potentials) {
      const double scl_factor = std::exp(-v * alpha);
      const auto want = passes.front().run(row, model, v, scl_factor);
      for (const auto& pass : passes.subspan(1)) {
        const auto got = pass.run(row, model, v, scl_factor);
        EXPECT_EQ(got.current_a, want.current_a)
            << pass.isa << ", " << count << " devices, v " << v;
        EXPECT_EQ(got.conductance_s, want.conductance_s)
            << pass.isa << ", " << count << " devices, v " << v;
        EXPECT_EQ(got.exp_conductance_s, want.exp_conductance_s)
            << pass.isa << ", " << count << " devices, v " << v;
      }
    }
  }
}

TEST(MarginPasses, EveryCompiledMarginMatchesThePortableOne) {
  // A margin pass's lanes are independent and min is exact, so every
  // instruction set must give the portable pass's value exactly, on rows
  // of every length and remainder and over every regime. random_row
  // saturates some devices, whose margin is -infinity, so odd trials cap
  // each device's drain current below Isat and keep most margins finite.
  const circuit::CrossbarConfig config;
  const double alpha = std::log(10.0) / (config.fet.ss_mv_per_dec * 1e-3);
  const auto model = circuit::detail::MarginModel::of(
      {config.fet.isat_a, config.fet.min_leak_a, alpha});
  const auto passes = circuit::detail::runnable_row_passes();
  util::Rng rng(73);
  int finite = 0;
  for (std::size_t count = 1; count <= 40; ++count) {
    for (int trial = 0; trial < 8; ++trial) {
      auto spans = random_row(count, alpha, config, rng);
      if (trial % 2 == 1) {
        for (auto& g : spans.inv_r) g = std::min(g, 1e-6);
      }
      const double want = passes.front().margin(spans.devices(), model);
      finite += std::isfinite(want) ? 1 : 0;
      for (const auto& pass : passes.subspan(1)) {
        EXPECT_EQ(pass.margin(spans.devices(), model), want)
            << pass.isa << ", " << count << " devices, trial " << trial;
      }
    }
  }
  EXPECT_GT(finite, 100);
}

TEST(MarginPasses, ClosedFormHoldsBelowTheSafePotential) {
  // Below min(margin, guard) no device changes the form of its
  // current, so the closed form built from the pass at v = 0 must give
  // the pass's current at any v there, to rounding. Rows of one to four
  // random devices, so that many have a finite margin, and potentials up
  // to just under it.
  const circuit::CrossbarConfig config;
  const double alpha = std::log(10.0) / (config.fet.ss_mv_per_dec * 1e-3);
  const circuit::detail::CellModel cell{config.fet.isat_a,
                                        config.fet.min_leak_a, alpha};
  const auto model = circuit::detail::MarginModel::of(cell);
  const auto& portable = circuit::detail::runnable_row_passes().front();
  util::Rng rng(79);
  int checked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto spans = random_row(1 + trial % 4, alpha, config, rng);
    const auto row = spans.devices();
    double vds_min = std::numeric_limits<double>::infinity();
    double r_max = 0.0;
    for (std::size_t j = 0; j < row.count; ++j) {
      if (spans.vds[j] > 0.0) vds_min = std::min(vds_min, spans.vds[j]);
      r_max = std::max(r_max, 1.0 / spans.inv_r[j]);
    }
    const double safe = std::min(portable.margin(row, model),
                                 model.guard_v(vds_min, r_max));
    if (!(safe > 0.0) || !std::isfinite(safe)) continue;
    const auto at0 = portable.run(row, cell, 0.0, 1.0);
    const double amplitude = at0.exp_conductance_s / alpha;
    const double ohmic = at0.conductance_s - at0.exp_conductance_s;
    for (const double v : {0.25 * safe, 0.5 * safe, 0.999 * safe}) {
      const double e = std::exp(-v * alpha);
      const auto want = portable.run(row, cell, v, e);
      const double current =
          ((at0.current_a - amplitude) - ohmic * v) + amplitude * e;
      EXPECT_NEAR(current, want.current_a, 1e-12 * at0.current_a)
          << row.count << " devices, trial " << trial << ", v " << v;
      EXPECT_NEAR(ohmic + at0.exp_conductance_s * e, want.conductance_s,
                  1e-12 * at0.conductance_s)
          << row.count << " devices, trial " << trial << ", v " << v;
    }
    ++checked;
  }
  EXPECT_GT(checked, 1000);
}

TEST(HotPathEncoding, NominalCurrentLutMatchesReference) {
  for (const auto metric :
       {DistanceMetric::kHamming, DistanceMetric::kManhattan}) {
    const auto dm = csp::DistanceMatrix::make(metric, 2);
    const auto enc = encode::encode_distance_matrix(dm);
    ASSERT_TRUE(enc.has_value());
    for (std::size_t sch = 0; sch < enc->search_count(); ++sch) {
      const auto row = enc->nominal_currents(sch);
      ASSERT_EQ(row.size(), enc->stored_count());
      for (std::size_t sto = 0; sto < enc->stored_count(); ++sto) {
        EXPECT_EQ(enc->nominal_current(sch, sto),
                  enc->nominal_current_reference(sch, sto));
        EXPECT_EQ(row[sto], enc->nominal_current_reference(sch, sto));
      }
    }
  }
}

core::FerexOptions engine_options(core::SearchFidelity fidelity) {
  core::FerexOptions options;
  options.fidelity = fidelity;
  return options;
}

TEST(HotPathEngine, IntraQueryParallelSearchIsDeterministic) {
  // 192 rows x 64 dims x 3 FeFETs (2-bit Manhattan) reaches the row
  // fan-out gate at circuit fidelity; search_hits_at's `parallel_rows`
  // pins either schedule. Results must not depend on the schedule.
  const auto db = data::random_int_vectors(192, 64, 4, 3);
  const auto requests =
      requests_for(data::random_int_vectors(12, 64, 4, 5));
  for (const auto fidelity :
       {core::SearchFidelity::kCircuit, core::SearchFidelity::kNominal}) {
    serve::EngineIndex index(engine_options(fidelity));
    index.configure(DistanceMetric::kManhattan, 2);
    index.store(db);
    const auto& engine = index.engine();
    ASSERT_GE(engine.array()->device_count(), core::kIntraQueryMinDevices);
    // The batch fans across requests, each request's row loop inline;
    // search_at fans one request's rows at circuit fidelity. The batch
    // consumes ordinals 0, 1, 2, ...
    const auto batch = index.search_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& query = requests[i].query;
      const auto serial = engine.search_hits_at(query, 1, i, false).front();
      const auto fanned = engine.search_hits_at(query, 1, i, true).front();
      EXPECT_EQ(serial.global_row, fanned.global_row);
      EXPECT_EQ(serial.sensed_current_a, fanned.sensed_current_a);
      EXPECT_EQ(serial.margin_a, fanned.margin_a);
      EXPECT_EQ(batch[i].best().global_row, serial.global_row);
      EXPECT_EQ(batch[i].best().sensed_current_a, serial.sensed_current_a);
      EXPECT_EQ(batch[i].best().margin_a, serial.margin_a);
      expect_same_best(batch[i], index.search_at(requests[i], i));
    }
  }
}

TEST(HotPathEngine, CompositeCodecPathMatchesReferenceKernel) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit));
  engine.configure_composite(DistanceMetric::kHamming, 4);
  const auto db = data::random_int_vectors(10, 6, 16, 17);
  engine.store(db);
  ASSERT_NE(engine.codec(), nullptr);
  const auto queries = data::random_int_vectors(6, 6, 16, 19);
  for (const auto& q : queries) {
    const auto sensed = engine.row_currents(q);
    const auto reference =
        engine.array()->search_reference(engine.codec()->expand(q));
    ASSERT_EQ(sensed.size(), reference.size());
    for (std::size_t r = 0; r < sensed.size(); ++r) {
      EXPECT_EQ(sensed[r], reference[r]);
    }
  }
}

TEST(HotPathEngine, BankedSearchUnaffectedByBankFanOut) {
  const auto db = data::random_int_vectors(40, 12, 4, 23);
  const auto queries = data::random_int_vectors(9, 12, 4, 29);
  arch::BankedOptions options;
  options.bank_rows = 8;  // 5 banks
  serve::BankedIndex banked(options);
  banked.configure(DistanceMetric::kHamming, 2);
  banked.store(db);
  serve::BankedIndex sequential(options);
  sequential.configure(DistanceMetric::kHamming, 2);
  sequential.store(db);

  // Batch (fans queries or banks depending on pool width) vs one-by-one
  // single search (fans banks): must agree bit for bit.
  const auto requests = requests_for(queries);
  const auto batch = banked.search_batch(requests);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_best(batch[i], sequential.search(requests[i]));
  }
}

TEST(SclSolveCounters, EverySolveIsAccounted) {
  const std::size_t rows = 10, dims = 8;
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit));
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(rows, dims, 4, 31));
  const auto* array = engine.array();
  ASSERT_NE(array, nullptr);
  array->reset_scl_solve_stats();

  const auto queries = data::random_int_vectors(5, dims, 4, 37);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    (void)engine.search_hits_at(queries[i], 1, i);
  }
  const auto stats = array->scl_solve_stats();
  EXPECT_EQ(stats.solves, rows * queries.size());
  // With the default clamp the ScL sits on the op-amp's few-hundred-ohm
  // output, and at these seeds no device of any row changes the form of
  // its current below that: every solve finishes on the closed form, with
  // no pass after its first, and converges.
  EXPECT_EQ(stats.closed_form, stats.solves);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.non_converged, 0u);

  array->reset_scl_solve_stats();
  const auto zeroed = array->scl_solve_stats();
  EXPECT_EQ(zeroed.solves, 0u);
  EXPECT_EQ(zeroed.iterations, 0u);
  EXPECT_EQ(zeroed.closed_form, 0u);
  EXPECT_EQ(zeroed.non_converged, 0u);
}

TEST(SclSolveCounters, NominalFidelityRunsNoSolves) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kNominal));
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(6, 8, 4, 41));
  engine.array()->reset_scl_solve_stats();
  for (const auto& q : data::random_int_vectors(4, 8, 4, 43)) {
    (void)engine.search_hits_at(q, 1, 0);
  }
  EXPECT_EQ(engine.array()->scl_solve_stats().solves, 0u);
}

TEST(SclSolveCounters, ProfilerSurfacesConvergence) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit));
  engine.configure(DistanceMetric::kHamming, 2);
  const std::size_t rows = 8;
  engine.store(data::random_int_vectors(rows, 8, 4, 47));
  const auto queries = data::random_int_vectors(6, 8, 4, 53);
  engine.array()->reset_scl_solve_stats();
  const auto profile = core::profile_searches(engine, queries);
  EXPECT_EQ(profile.scl_solves, rows * queries.size());
  // Every solve at these seeds finishes on the closed form, so none runs
  // a pass after its first.
  EXPECT_EQ(engine.array()->scl_solve_stats().closed_form,
            profile.scl_solves);
  EXPECT_EQ(profile.scl_mean_iterations, 0.0);
  EXPECT_EQ(profile.scl_non_converged, 0u);
}

// -------------------------------------------------------- ScL solve ---

struct SolveCase {
  DistanceMetric metric;
  bool clamp;
  std::size_t rows;
  std::size_t dims;
};

std::string solve_case_name(const testing::TestParamInfo<SolveCase>& info) {
  const auto& c = info.param;
  return csp::to_string(c.metric) + (c.clamp ? "_clamped_" : "_unclamped_") +
         std::to_string(c.rows) + "x" + std::to_string(c.dims);
}

std::vector<SolveCase> solve_cases(std::initializer_list<bool> clamps) {
  std::vector<SolveCase> cases;
  for (const auto metric :
       {DistanceMetric::kHamming, DistanceMetric::kManhattan,
        DistanceMetric::kEuclideanSquared}) {
    for (const bool clamp : clamps) {
      for (const auto& [rows, dims] :
           {std::pair<std::size_t, std::size_t>{64, 32}, {128, 64},
            {256, 128}}) {
        cases.push_back({metric, clamp, rows, dims});
      }
    }
  }
  return cases;
}

/// A circuit-fidelity engine (default device variation) over random
/// 2-bit rows.
core::FerexEngine loaded_engine(const SolveCase& c) {
  core::FerexOptions options =
      engine_options(core::SearchFidelity::kCircuit);
  options.circuit.use_opamp_clamp = c.clamp;
  core::FerexEngine engine(options);
  engine.configure(c.metric, 2);
  engine.store(data::random_int_vectors(c.rows, c.dims, 4, 59));
  return engine;
}

constexpr std::size_t kSolveQueries = 16;

/// The share of clamped solves that finish on the closed form at the
/// seeds below, rounded down to a multiple of 0.05. The counts read, per
/// 64x32, 128x64 and 256x128: Hamming 0.969, 0.932, 0.771; Manhattan
/// 0.984, 0.930, 0.749; Euclidean-squared 0.921, 0.782, 0.457. The share
/// falls as rows grow, since R*I(0) grows with the row current while
/// each device's margin does not.
double closed_form_floor(const SolveCase& c) {
  const std::size_t geometry = c.rows == 64 ? 0 : c.rows == 128 ? 1 : 2;
  switch (c.metric) {
    case DistanceMetric::kHamming:
      return std::array{0.95, 0.9, 0.75}[geometry];
    case DistanceMetric::kManhattan:
      return std::array{0.95, 0.9, 0.7}[geometry];
    default:
      return std::array{0.9, 0.75, 0.45}[geometry];
  }
}

class SclSolveConvergence : public testing::TestWithParam<SolveCase> {};

TEST_P(SclSolveConvergence, EverySolveConverges) {
  const auto& c = GetParam();
  const auto engine = loaded_engine(c);
  const auto* array = engine.array();
  array->reset_scl_solve_stats();
  for (const auto& q : data::random_int_vectors(kSolveQueries, c.dims, 4, 61)) {
    (void)array->search(q);
  }
  const auto stats = array->scl_solve_stats();
  ASSERT_EQ(stats.solves, c.rows * kSolveQueries);
  EXPECT_EQ(stats.non_converged, 0u);
  // Passes after the first and closed-form solves, counts fixed by the
  // seeds. A solve that falls back runs one or two passes after its
  // first: one Newton step to the operating point, sometimes one more,
  // and the step that stops there runs none. A closed-form solve runs
  // none, so with the clamp the mean is at most twice the share that
  // falls back, and without it no solve finishes on the closed form.
  const double solves = static_cast<double>(stats.solves);
  const double mean_passes = static_cast<double>(stats.iterations) / solves;
  if (c.clamp) {
    const double floor = closed_form_floor(c);
    EXPECT_GE(static_cast<double>(stats.closed_form) / solves, floor);
    EXPECT_LE(mean_passes, 2.0 * (1.0 - floor));
  } else {
    EXPECT_EQ(stats.closed_form, 0u);
    EXPECT_LE(mean_passes, 5.0);
  }
}

INSTANTIATE_TEST_SUITE_P(MetricClampGeometry, SclSolveConvergence,
                         testing::ValuesIn(solve_cases({true, false})),
                         solve_case_name);

/// Row indices of the `k` smallest currents, lowest row first on ties.
std::vector<std::size_t> top_k_rows(const std::vector<double>& currents,
                                    std::size_t k) {
  std::vector<std::size_t> order(currents.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return currents[a] < currents[b];
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

/// One device of a row under one query, read through the array's public
/// accessors.
struct OracleDevice {
  double vgs, vds, vth, res;
};

/// A row's current I(v) and conductance G = -dI/dv.
struct OraclePoint {
  double current_a = 0.0;
  double conductance_s = 0.0;
};

/// I(v) and G(v) of a row, one device at a time in device order, with the
/// subthreshold current Isat*exp(a*(Vgs - v - Vth)) computed directly.
OraclePoint oracle_point(const std::vector<OracleDevice>& row,
                         const device::FeFetParams& fet, double alpha,
                         double v) {
  OraclePoint point;
  for (const auto& d : row) {
    const double vds_eff = d.vds - v;
    if (vds_eff <= 0.0) continue;
    double saturation = fet.isat_a;
    double saturation_g = 0.0;
    if (d.vgs - v < d.vth) {
      const double term = fet.isat_a * std::exp(alpha * (d.vgs - v - d.vth));
      saturation = std::max(term, fet.min_leak_a);
      saturation_g = term > fet.min_leak_a ? alpha * term : 0.0;
    }
    const double ohm = vds_eff / d.res;
    point.current_a += std::min(ohm, saturation);
    point.conductance_s += ohm < saturation ? 1.0 / d.res : saturation_g;
  }
  return point;
}

/// Every row's ScL operating point by bisection alone, sharing no table,
/// factor, pass or step with search(): f(v) = v - R*I(v) is bisected on
/// [0, R*I(0)] until the midpoint equals an endpoint, and the row is
/// reported at the low endpoint.
std::vector<OraclePoint> oracle_solve(const circuit::CrossbarArray& array,
                                      std::span<const int> query) {
  const auto& enc = array.encoding();
  const auto& config = array.config();
  const double alpha = std::log(10.0) / (config.fet.ss_mv_per_dec * 1e-3);
  const double source_res = config.use_opamp_clamp
                                ? config.opamp.output_res_ohm
                                : config.unclamped_source_res_ohm;
  const std::size_t fefets = array.fefets_per_cell();
  std::vector<OracleDevice> row(array.dims() * fefets);
  std::vector<OraclePoint> points(array.rows());
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t dim = 0; dim < array.dims(); ++dim) {
      const auto qv = static_cast<std::size_t>(query[dim]);
      for (std::size_t i = 0; i < fefets; ++i) {
        row[dim * fefets + i] = {
            array.ladder().vsearch(
                static_cast<std::size_t>(enc.search_level(qv, i))),
            config.cell.vds_unit_v * enc.vds_multiple(qv, i),
            array.device_vth(r, dim, i), array.device_resistance(r, dim, i)};
      }
    }
    const auto f = [&](double v) {
      return v - source_res * oracle_point(row, config.fet, alpha, v).current_a;
    };
    double lo = 0.0;
    double hi = -f(0.0);
    for (double mid = 0.5 * hi; mid != lo && mid != hi; mid = 0.5 * (lo + hi)) {
      (f(mid) < 0.0 ? lo : hi) = mid;
    }
    points[r] = oracle_point(row, config.fet, alpha, lo);
  }
  return points;
}

/// Checks every row search() senses for `query` against the oracle. The
/// bound is the bisected G times 1e-9 V, a hundredth of the solve's step
/// tolerance, plus rounding of the oracle's in-order sum; the noiseless
/// LTA order of the five nearest rows must match too.
void expect_matches_oracle(const circuit::CrossbarArray& array,
                           std::span<const int> query) {
  const auto sensed = array.search(query);
  const auto oracle = oracle_solve(array, query);
  std::vector<double> oracle_currents;
  for (std::size_t r = 0; r < sensed.size(); ++r) {
    const auto& want = oracle[r];
    EXPECT_TRUE(std::isfinite(sensed[r]) && sensed[r] >= 0.0)
        << "row " << r << ": " << sensed[r];
    EXPECT_LE(std::abs(sensed[r] - want.current_a),
              want.conductance_s * 1e-9 + 1e-12 * want.current_a)
        << "row " << r;
    oracle_currents.push_back(want.current_a);
  }
  EXPECT_EQ(top_k_rows(sensed, 5), top_k_rows(oracle_currents, 5));
}

class SclSolveOracle : public testing::TestWithParam<SolveCase> {};

TEST_P(SclSolveOracle, EveryRowMatchesTheBisectedOperatingPoint) {
  const auto& c = GetParam();
  const auto engine = loaded_engine(c);
  for (const auto& q : data::random_int_vectors(kSolveQueries, c.dims, 4, 67)) {
    expect_matches_oracle(*engine.array(), q);
  }
}

INSTANTIATE_TEST_SUITE_P(MetricClampGeometry, SclSolveOracle,
                         testing::ValuesIn(solve_cases({true, false})),
                         solve_case_name);

TEST(SclSolveFallback, OnlyTheRowWhoseDeviceChangesFormRunsPasses) {
  // Two arrays restored from the same fabrication but one device: in the
  // second, one device of row kRow sits where its subthreshold current
  // Isat*e^{a(d - v)} crosses its ohmic (Vds - v)/R halfway up the
  // clamped bracket [0, R*I(0)] of the query. The closed form would carry
  // the device's ohmic current past the crossing, so that row alone must
  // fall back to a pass per step, and every row must still match the
  // bisection oracle, also after the writes that reset the row's safe
  // potential.
  const auto enc = encode::encode_distance_matrix(
      csp::DistanceMatrix::make(DistanceMetric::kHamming, 2));
  ASSERT_TRUE(enc.has_value());
  const device::VoltageLadder ladder(
      enc->ladder_levels(), 0.2,
      1.5 / static_cast<double>(enc->ladder_levels()));
  circuit::CrossbarConfig config;
  config.variation.enabled = false;  // append_row draws a nominal row
  const double alpha = std::log(10.0) / (config.fet.ss_mv_per_dec * 1e-3);
  const std::size_t rows = 8, dims = 16, fefets = enc->fefets_per_cell();
  const std::size_t devices = rows * dims * fefets;
  const auto db = data::random_int_vectors(rows, dims, 4, 83);
  const auto query = data::random_int_vectors(1, dims, 4, 89).front();
  const auto restore = [&](std::vector<double> vth_offsets) {
    auto array = std::make_unique<circuit::CrossbarArray>(
        rows, dims, *enc, ladder, config, std::move(vth_offsets),
        std::vector<double>(devices, config.cell.resistance_ohm));
    for (std::size_t r = 0; r < rows; ++r) array->program_row(r, db[r]);
    return array;
  };
  const auto closed_forms = [&](const circuit::CrossbarArray& array) {
    array.reset_scl_solve_stats();
    (void)array.search(query);
    return array.scl_solve_stats().closed_form;
  };
  const auto nominal = restore(std::vector<double>(devices, 0.0));
  ASSERT_EQ(closed_forms(*nominal), rows);

  // The first conducting device of row kRow that is on under the query.
  constexpr std::size_t kRow = 3;
  std::size_t dim = 0, fefet = 0;
  double vgs = 0.0, vds = 0.0;
  for (std::size_t j = 0; j < dims * fefets; ++j) {
    dim = j / fefets;
    fefet = j % fefets;
    const auto qv = static_cast<std::size_t>(query[dim]);
    vgs = ladder.vsearch(
        static_cast<std::size_t>(enc->search_level(qv, fefet)));
    vds = config.cell.vds_unit_v * enc->vds_multiple(qv, fefet);
    if (vds > 0.0 && vgs > nominal->device_vth(kRow, dim, fefet)) break;
  }
  ASSERT_GT(vds, 0.0);
  // Its current is Vds/R at v = 0 before and after the move, so the row's
  // bracket stays where the nominal row puts it.
  std::vector<OracleDevice> row;
  for (std::size_t d = 0; d < dims; ++d) {
    const auto qv = static_cast<std::size_t>(query[d]);
    for (std::size_t i = 0; i < fefets; ++i) {
      row.push_back(
          {ladder.vsearch(static_cast<std::size_t>(enc->search_level(qv, i))),
           config.cell.vds_unit_v * enc->vds_multiple(qv, i),
           nominal->device_vth(kRow, d, i), config.cell.resistance_ohm});
    }
  }
  const double bracket = config.opamp.output_res_ohm *
                         oracle_point(row, config.fet, alpha, 0.0).current_a;
  const double crossing = 0.5 * bracket;
  const double vth = vgs - crossing +
                     std::log(config.fet.isat_a * config.cell.resistance_ohm /
                              (vds - crossing)) /
                         alpha;
  std::vector<double> offsets(devices, 0.0);
  offsets[(kRow * dims + dim) * fefets + fefet] =
      vth - nominal->device_vth(kRow, dim, fefet);
  const auto moved = restore(offsets);
  ASSERT_NEAR(moved->device_vth(kRow, dim, fefet), vth, 1e-12);

  // The device is ohmic at v = 0 and on the exponential at R*I(0).
  const auto term = [&](double v) {
    return config.fet.isat_a * std::exp(alpha * (vgs - v - vth));
  };
  const auto ohm = [&](double v) {
    return (vds - v) / config.cell.resistance_ohm;
  };
  ASSERT_GT(term(0.0), ohm(0.0));
  ASSERT_LT(term(bracket), ohm(bracket));

  EXPECT_EQ(closed_forms(*moved), rows - 1);
  expect_matches_oracle(*moved, query);

  // Every write sets the row's safe potential afresh. Some other value in
  // the moved device's cell stores it at another ladder level, clear of
  // the crossing under every search value, so the row closes; writing the
  // old value back must make it fall back again.
  std::vector<int> settled;
  for (int value = 0; value < 4 && settled.empty(); ++value) {
    auto data = db[kRow];
    data[dim] = value;
    auto probe = restore(offsets);
    probe->program_row(kRow, data);
    if (closed_forms(*probe) == rows) settled = data;
  }
  ASSERT_FALSE(settled.empty());
  moved->overwrite_row(kRow, settled);
  EXPECT_EQ(closed_forms(*moved), rows);
  moved->overwrite_row(kRow, db[kRow]);
  EXPECT_EQ(closed_forms(*moved), rows - 1);
  expect_matches_oracle(*moved, query);
  moved->erase_row(kRow);
  EXPECT_EQ(closed_forms(*moved), rows - 1);
  moved->overwrite_row(kRow, db[kRow]);
  EXPECT_EQ(closed_forms(*moved), rows - 1);
  expect_matches_oracle(*moved, query);
  // An appended nominal row closes: its safe potential is its own.
  util::Rng rng(97);
  moved->append_row(db[kRow], rng);
  EXPECT_EQ(closed_forms(*moved), rows);
  expect_matches_oracle(*moved, query);
}

TEST(SclSolveCounters, ConvergesFarBeyondTheAblationImpedance) {
  // A bare ScL of 1-100 MOhm puts the operating point far out on the
  // subthreshold exponential, where plain Newton steps crawl by about
  // SS/ln10 each and can run into the step cap. Every row must still
  // match the bisection oracle.
  for (const double source_res : {1e6, 1e8}) {
    for (const double ss : {15.0, 60.0, 120.0}) {
      for (const auto metric :
           {DistanceMetric::kHamming, DistanceMetric::kEuclideanSquared}) {
        core::FerexOptions options =
            engine_options(core::SearchFidelity::kCircuit);
        options.circuit.use_opamp_clamp = false;
        options.circuit.unclamped_source_res_ohm = source_res;
        options.circuit.fet.ss_mv_per_dec = ss;
        core::FerexEngine engine(options);
        engine.configure(metric, 2);
        engine.store(data::random_int_vectors(64, 64, 4, 5));
        const auto* array = engine.array();
        array->reset_scl_solve_stats();
        SCOPED_TRACE(csp::to_string(metric) + " R=" +
                     std::to_string(source_res) + " SS=" + std::to_string(ss));
        for (const auto& q : data::random_int_vectors(16, 64, 4, 6)) {
          expect_matches_oracle(*array, q);
        }
        EXPECT_EQ(array->scl_solve_stats().non_converged, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ferex
