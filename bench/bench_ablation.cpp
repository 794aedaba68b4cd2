// Ablation studies for the design choices called out in DESIGN.md:
//   A. AC-3 vs pure backtracking for constraint 3 (Alg. 1's note);
//   B. cell size k vs feasibility and current-range budget;
//   C. op-amp ScL clamp on/off -> distance corruption and NN accuracy;
//   D. monolithic (exact CSP) vs composite (digit-decomposed) scaling;
//   E. ladder noise margin vs Monte-Carlo search accuracy.
// Sections C and E run circuit-fidelity searches; the binary exits 1 when
// any of their ScL solves fails to converge, since a capped solve leaves
// an arbitrary current behind and every figure built on it is wrong.
// Stdout is the same on every run; section A's wall times go to stderr.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/ferex.hpp"
#include "csp/errors.hpp"
#include "csp/feasibility.hpp"
#include "encode/composite.hpp"
#include "encode/encoder.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ferex;
using csp::DistanceMetric;

std::uint64_t non_converged_solves(const core::FerexEngine& engine) {
  return engine.array()->scl_solve_stats().non_converged;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void ablation_ac3() {
  util::print_banner(std::cout, "A. AC-3 vs pure backtracking (constraint 3)");
  util::TextTable t({"DM", "k", "mode", "feasible", "AC-3 prunes",
                     "search nodes"});
  // Wall time differs run to run, so it goes to stderr: stdout stays
  // byte-identical across runs and can be diffed between builds.
  util::TextTable timing({"DM", "k", "mode", "time [ms]"});
  const std::vector<int> cr{1, 2};
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan}) {
    const auto dm = csp::DistanceMatrix::make(metric, 2);
    const int k = metric == DistanceMetric::kHamming ? 3 : 4;
    for (bool use_ac3 : {true, false}) {
      csp::FeasibilityOptions opt;
      opt.use_ac3 = use_ac3;
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = csp::detect_feasibility(dm, k, cr, opt);
      const double ms = ms_since(t0);
      const std::string mode = use_ac3 ? "AC-3 + search" : "search only";
      t.add_row({dm.name(), std::to_string(k), mode,
                 result.feasible ? "yes" : "no",
                 std::to_string(result.stats.ac3_removals),
                 std::to_string(result.stats.backtrack_nodes)});
      timing.add_row(
          {dm.name(), std::to_string(k), mode, util::TextTable::fmt(ms, 2)});
    }
  }
  std::cout << t;
  std::cerr << "A. CSP wall time\n" << timing;
}

void ablation_cell_size() {
  util::print_banner(std::cout, "B. cell size k vs feasibility (CR = {1,2})");
  util::TextTable t({"DM", "k=1", "k=2", "k=3", "k=4", "k=5"});
  const std::vector<int> cr{1, 2};
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    const auto dm = csp::DistanceMatrix::make(metric, 2);
    std::vector<std::string> row{dm.name()};
    for (int k = 1; k <= 5; ++k) {
      try {
        const auto result = csp::detect_feasibility(dm, k, cr);
        row.push_back(result.feasible ? "feasible" : "infeasible");
      } catch (const csp::ResourceLimitError&) {
        row.push_back("budget");
      }
    }
    t.add_row(std::move(row));
  }
  std::cout << t;
  std::puts("(Euclidean-squared needs CR up to {1..5}: max DM entry is 9)");
}

/// Returns the number of ScL solves that did not converge.
std::uint64_t ablation_clamp() {
  util::print_banner(std::cout, "C. op-amp ScL clamp on/off");
  std::uint64_t non_converged = 0;
  util::TextTable t({"clamp", "distance error @ d=64", "NN accuracy (40 trials)"});
  for (bool clamp : {true, false}) {
    core::FerexOptions opt;
    opt.circuit.use_opamp_clamp = clamp;
    opt.circuit.variation.enabled = false;
    opt.lta.offset_sigma_rel = 0.0;

    // Distance corruption on one large-distance row.
    core::FerexEngine probe(opt);
    probe.configure(DistanceMetric::kHamming, 2);
    const std::vector<int> stored(64, 0);
    const std::vector<int> far_query(64, 3);
    probe.store({stored});
    const double sensed =
        probe.row_currents(far_query).front() / probe.sense_unit();
    const double expected = 128.0;  // HD(0b00, 0b11) * 64
    non_converged += non_converged_solves(probe);

    // NN accuracy with realistic variation.
    std::size_t correct = 0;
    const int trials = 40;
    for (int trial = 0; trial < trials; ++trial) {
      core::FerexOptions noisy = opt;
      noisy.circuit.variation.enabled = true;
      noisy.seed = 777 + static_cast<std::uint64_t>(trial);
      core::FerexEngine engine(noisy);
      engine.configure(DistanceMetric::kHamming, 2);
      util::Rng rng(42 + static_cast<std::uint64_t>(trial));
      std::vector<int> query(64);
      for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
      std::vector<std::vector<int>> db;
      auto flip = [&](int bits) {
        auto vec = query;
        for (int f = 0; f < bits; ++f) {
          vec[rng.uniform_below(64)] ^= (1 << (f % 2));
        }
        return vec;
      };
      db.push_back(flip(3));
      for (int i = 0; i < 9; ++i) db.push_back(flip(12));
      engine.store(db);
      if (engine.search_hits_at(query, 1, 0).front().global_row == 0) ++correct;
      non_converged += non_converged_solves(engine);
    }
    t.add_row({clamp ? "on" : "off (ablated)",
               util::TextTable::fmt(expected - sensed, 2) + " units",
               util::TextTable::fmt(
                   static_cast<double>(correct) / trials, 2)});
  }
  std::cout << t;
  return non_converged;
}

void ablation_composite() {
  util::print_banner(std::cout,
                     "D. monolithic exact CSP vs composite decomposition");
  util::TextTable t({"metric", "bits", "monolithic", "composite",
                     "FeFETs/element (composite)"});
  encode::EncoderOptions opt;
  opt.max_fefets_per_cell = 6;
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan}) {
    for (int bits : {2, 3, 4}) {
      const auto dm = csp::DistanceMatrix::make(metric, bits);
      std::string mono;
      encode::EncoderReport report;
      const auto enc = encode::encode_distance_matrix(dm, opt, &report);
      if (enc) {
        mono = "k=" + std::to_string(report.fefets_per_cell);
      } else if (report.resource_limited) {
        mono = "budget @ k=" + std::to_string(report.resource_limited_at_k);
      } else {
        mono = "infeasible";
      }
      const auto composite = encode::make_composite_encoding(metric, bits);
      t.add_row({csp::to_string(metric), std::to_string(bits), mono,
                 composite ? "feasible" : "n/a",
                 composite ? std::to_string(composite->fefets_per_element())
                           : "-"});
    }
  }
  std::cout << t;
  std::puts("(composite cells grow linearly in bits for Hamming, as 2^b-1 "
            "for thermometer L1;\n the exact CSP explodes past 2-bit — "
            "see EncoderReport::resource_limited)");
}

/// Returns the number of ScL solves that did not converge.
std::uint64_t ablation_margin() {
  util::print_banner(std::cout,
                     "E. ladder noise margin vs MC accuracy (sigma_Vth = 54 mV)");
  std::uint64_t non_converged = 0;
  util::TextTable t({"ladder step [V]", "margin [V]", "margin/sigma",
                     "accuracy (60 runs, HD 5 vs 6)"});
  for (double step : {0.20, 0.30, 0.40, 0.58}) {
    std::size_t correct = 0;
    const int trials = 60;
    for (int trial = 0; trial < trials; ++trial) {
      core::FerexOptions opt;
      opt.ladder_step_v = step;
      opt.seed = 31337 + static_cast<std::uint64_t>(trial);
      core::FerexEngine engine(opt);
      engine.configure(DistanceMetric::kHamming, 2);
      util::Rng rng(1000 + static_cast<std::uint64_t>(trial));
      std::vector<int> query(64);
      for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));
      auto at_hd = [&](int bits) {
        auto vec = query;
        std::vector<std::size_t> chosen;
        while (chosen.size() < static_cast<std::size_t>(bits)) {
          const auto slot = rng.uniform_below(128);
          bool dup = false;
          for (auto s : chosen) dup |= (s == slot);
          if (!dup) chosen.push_back(slot);
        }
        for (auto s : chosen) vec[s / 2] ^= (1 << (s % 2));
        return vec;
      };
      std::vector<std::vector<int>> db;
      db.push_back(at_hd(5));
      for (int i = 0; i < 15; ++i) db.push_back(at_hd(6));
      engine.store(db);
      if (engine.search_hits_at(query, 1, 0).front().global_row == 0) ++correct;
      non_converged += non_converged_solves(engine);
    }
    t.add_row({util::TextTable::fmt(step, 2),
               util::TextTable::fmt(step / 2.0, 2),
               util::TextTable::fmt(step / 2.0 / 0.054, 1),
               util::TextTable::fmt(static_cast<double>(correct) / trials, 2)});
  }
  std::cout << t;
  return non_converged;
}

}  // namespace

int main() {
  std::puts("=== FeReX design-choice ablations ===");
  ablation_ac3();
  ablation_cell_size();
  std::uint64_t non_converged = ablation_clamp();
  ablation_composite();
  non_converged += ablation_margin();
  if (non_converged > 0) {
    std::fprintf(stderr,
                 "bench_ablation: %llu ScL solves did not converge\n",
                 static_cast<unsigned long long>(non_converged));
    return 1;
  }
  return 0;
}
