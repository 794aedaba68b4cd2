// Fig. 7 regeneration: Monte-Carlo robustness under device-to-device
// variation (sigma_Vth = 54 mV, sigma_R = 8 %, Sec. IV-A).
//
// Part 1 — array-level worst case, as in the paper: the query's nearest
// stored vector sits at Hamming distance d and every distractor at d+1
// (a single unit-current margin). 100 MC runs per case; the paper reports
// ~90 % accuracy for the hardest MNIST KNN case (d = 5 vs 6).
//
// Part 2 — application level: KNN classification accuracy through the
// noisy circuit vs the ideal software implementation (the paper reports a
// 0.6 % degradation).
#include <cstdio>
#include <iostream>

#include "data/datasets.hpp"
#include "ml/knn.hpp"
#include "ml/quantize.hpp"
#include "serve/engine_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ferex;

/// Flips exactly `bits` distinct bit positions of a 2-bit-element vector,
/// producing a vector at exact Hamming distance `bits` from the input.
std::vector<int> at_hamming_distance(const std::vector<int>& base, int bits,
                                     util::Rng& rng) {
  auto vec = base;
  const std::size_t slots = base.size() * 2;
  std::vector<std::size_t> chosen;
  while (chosen.size() < static_cast<std::size_t>(bits)) {
    const auto slot = rng.uniform_below(slots);
    bool duplicate = false;
    for (auto s : chosen) duplicate |= (s == slot);
    if (!duplicate) chosen.push_back(slot);
  }
  for (auto slot : chosen) vec[slot / 2] ^= (1 << (slot % 2));
  return vec;
}

double worst_case_accuracy(int d_near, int runs, double sigma_vth) {
  constexpr std::size_t kDims = 64;
  constexpr std::size_t kDistractors = 15;
  int correct = 0;
  for (int run = 0; run < runs; ++run) {
    core::FerexOptions opt;
    opt.circuit.variation.sigma_vth_v = sigma_vth;
    opt.seed = 9000 + static_cast<std::uint64_t>(run);
    serve::EngineIndex index(opt);
    index.configure(csp::DistanceMetric::kHamming, 2);

    util::Rng rng(500 + static_cast<std::uint64_t>(run));
    std::vector<int> query(kDims);
    for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));

    std::vector<std::vector<int>> db;
    db.push_back(at_hamming_distance(query, d_near, rng));
    for (std::size_t i = 0; i < kDistractors; ++i) {
      db.push_back(at_hamming_distance(query, d_near + 1, rng));
    }
    index.store(db);
    if (index.search({query}).best().global_row == 0) ++correct;
  }
  return static_cast<double>(correct) / runs;
}

}  // namespace

int main() {
  constexpr int kRuns = 100;

  std::puts("=== Fig. 7: Monte-Carlo accuracy under D2D variation ===");
  std::printf("variation: sigma_Vth = 54 mV, sigma_R = 8%%; %d runs/case\n\n",
              kRuns);

  util::TextTable t({"nearest @ HD", "distractors @ HD", "accuracy",
                     "95% CI", "note"});
  for (int d = 1; d <= 6; ++d) {
    const double acc = worst_case_accuracy(d, kRuns, 54e-3);
    t.add_row({std::to_string(d), std::to_string(d + 1),
               util::TextTable::fmt(acc, 2),
               "+/- " + util::TextTable::fmt(
                            util::wilson_half_width(acc, kRuns), 2),
               d == 5 ? "paper's worst case (reports ~0.90)" : ""});
  }
  std::cout << t;

  std::puts("\n=== variation sweep at the worst case (HD 5 vs 6) ===");
  util::TextTable sweep({"sigma_Vth [mV]", "accuracy"});
  for (double mv : {0.0, 27.0, 54.0, 81.0, 108.0}) {
    sweep.add_row({util::TextTable::fmt(mv, 0),
                   util::TextTable::fmt(
                       worst_case_accuracy(5, kRuns, mv * 1e-3), 2)});
  }
  std::cout << sweep;

  std::puts("\n=== KNN classification: noisy circuit vs software ===");
  {
    auto spec = data::mnist_like();
    spec.train_size = 200;  // compact MC-friendly subset
    spec.test_size = 200;
    spec.class_separation = 0.45;  // hard enough that errors are visible
    const auto ds = data::make_synthetic(spec, 31);
    const auto q = ml::Quantizer::fit(ds.train_x, 2);
    const auto train_q = q.quantize(ds.train_x);
    const auto test_q = q.quantize(ds.test_x);

    const ml::KnnClassifier sw(train_q, ds.train_y);
    const double sw_acc =
        sw.evaluate(csp::DistanceMetric::kHamming, test_q, ds.test_y, 1);

    core::FerexOptions opt;  // variation + LTA noise at paper defaults
    serve::EngineIndex index(opt);
    index.configure(csp::DistanceMetric::kHamming, 2);
    std::vector<std::vector<int>> db;
    for (std::size_t r = 0; r < train_q.rows(); ++r) {
      const auto row = train_q.row(r);
      db.emplace_back(row.begin(), row.end());
    }
    index.store(db);

    std::size_t hits = 0;
    for (std::size_t s = 0; s < test_q.rows(); ++s) {
      const auto row = test_q.row(s);
      const std::vector<int> query(row.begin(), row.end());
      const auto winner = index.search({query}).best().global_row;
      if (ds.train_y[winner] == ds.test_y[s]) ++hits;
    }
    const double hw_acc =
        static_cast<double>(hits) / static_cast<double>(test_q.rows());
    util::TextTable knn({"implementation", "1-NN accuracy"});
    knn.add_row({"software (ideal)", util::TextTable::fmt(sw_acc, 3)});
    knn.add_row({"FeReX circuit (variation on)",
                 util::TextTable::fmt(hw_acc, 3)});
    knn.add_row({"degradation",
                 util::TextTable::fmt(sw_acc - hw_acc, 3) +
                     "  (paper reports 0.006)"});
    std::cout << knn;
  }
  return 0;
}
