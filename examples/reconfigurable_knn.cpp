// Reconfigurable KNN classification on a synthetic sensor dataset.
//
// Demonstrates the workflow the paper motivates: within one application,
// different datasets prefer different distance metrics — with FeReX the
// metric is a runtime configuration, not a silicon respin. This example
// runs a KNN classifier entirely through the simulated FeReX array for
// each metric and reports accuracy side by side with software KNN.
#include <cstdio>
#include <map>

#include "data/datasets.hpp"
#include "ml/knn.hpp"
#include "ml/quantize.hpp"
#include "serve/engine_index.hpp"

namespace {

int majority_label(const std::vector<ferex::serve::Hit>& neighbors,
                   const std::vector<int>& labels) {
  std::map<int, int> votes;
  for (const auto& hit : neighbors) ++votes[labels[hit.global_row]];
  int best = labels[neighbors.front().global_row], best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best = label;
    }
  }
  return best;
}

}  // namespace

int main() {
  using ferex::csp::DistanceMetric;

  // A compact activity-recognition-style dataset (sensor glitches favor
  // robust metrics).
  ferex::data::SyntheticSpec spec;
  spec.name = "sensors";
  spec.feature_count = 64;
  spec.class_count = 6;
  spec.train_size = 240;
  spec.test_size = 120;
  spec.class_separation = 0.8;
  spec.outlier_probability = 0.05;
  const auto ds = ferex::data::make_synthetic(spec, 2024);

  // Quantize features to 2-bit for the multi-bit AM.
  const auto quantizer = ferex::ml::Quantizer::fit(ds.train_x, 2);
  const auto train_q = quantizer.quantize(ds.train_x);
  const auto test_q = quantizer.quantize(ds.test_x);

  std::vector<std::vector<int>> database;
  database.reserve(train_q.rows());
  for (std::size_t r = 0; r < train_q.rows(); ++r) {
    const auto row = train_q.row(r);
    database.emplace_back(row.begin(), row.end());
  }

  ferex::core::FerexOptions opt;
  opt.encoder.max_fefets_per_cell = 6;
  opt.encoder.max_vds_multiple = 5;
  ferex::serve::EngineIndex index(opt);
  const ferex::ml::KnnClassifier software(train_q, ds.train_y);
  constexpr std::size_t kNeighbors = 5;

  std::printf("%-12s %-18s %-18s\n", "metric", "FeReX-KNN acc", "software acc");
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    index.configure(metric, 2);  // reconfigure in place
    if (index.stored_count() == 0) index.store(database);

    std::size_t hits = 0;
    for (std::size_t s = 0; s < test_q.rows(); ++s) {
      const auto row = test_q.row(s);
      const std::vector<int> query(row.begin(), row.end());
      const auto response = index.search({query, kNeighbors});
      if (majority_label(response.hits, ds.train_y) == ds.test_y[s]) ++hits;
    }
    const double hw_acc =
        static_cast<double>(hits) / static_cast<double>(test_q.rows());
    const double sw_acc =
        software.evaluate(metric, test_q, ds.test_y, kNeighbors);
    std::printf("%-12s %-18.3f %-18.3f\n",
                ferex::csp::to_string(metric).c_str(), hw_acc, sw_acc);
  }
  std::puts("\nSame stored array served all three metrics (reconfigured "
            "between runs).");
  return 0;
}
