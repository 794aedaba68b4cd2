// Hyperdimensional-computing classification through FeReX (Sec. IV-B).
//
// Full pipeline: random projection encoding -> single-pass + iterative
// training -> class prototypes programmed into the FeReX array -> queries
// answered by in-memory associative search. Tries all three metrics and
// reports which one this dataset prefers.
#include <cstdio>

#include "data/datasets.hpp"
#include "ml/hdc.hpp"
#include "serve/engine_index.hpp"

int main() {
  using ferex::csp::DistanceMetric;

  // Voice-recognition-style dataset (ISOLET shape, scaled sizes).
  auto spec = ferex::data::isolet_like();
  spec.train_size = 780;  // keep the example snappy
  spec.test_size = 260;
  const auto ds = ferex::data::make_synthetic(spec, 7);
  std::printf("dataset: %s  (n=%zu features, K=%zu classes)\n",
              ds.name.c_str(), ds.feature_count, ds.class_count);

  // Train the HDC model once per bit width; prototypes are
  // metric-agnostic. Hamming deployments binarize hypervectors (classic
  // HDC), Manhattan/Euclidean use the multi-bit representation — FeReX
  // serves both, the bit width is part of the reconfiguration.
  ferex::ml::HdcOptions hdc_opt;
  hdc_opt.hypervector_dim = 1024;
  hdc_opt.bits = 2;
  hdc_opt.training_epochs = 3;
  ferex::ml::HdcModel model(ds.feature_count, ds.class_count, hdc_opt);
  model.train(ds.train_x, ds.train_y);
  ferex::ml::HdcOptions hdc1 = hdc_opt;
  hdc1.bits = 1;
  ferex::ml::HdcModel binary_model(ds.feature_count, ds.class_count, hdc1);
  binary_model.train(ds.train_x, ds.train_y);

  const auto prototypes_of = [&](const ferex::ml::HdcModel& m) {
    std::vector<std::vector<int>> out;
    for (std::size_t c = 0; c < ds.class_count; ++c) {
      const auto row = m.prototypes().row(c);
      out.emplace_back(row.begin(), row.end());
    }
    return out;
  };

  ferex::core::FerexOptions opt;
  opt.encoder.max_fefets_per_cell = 6;
  opt.encoder.max_vds_multiple = 5;
  // Class count is small; circuit fidelity is affordable here.
  ferex::serve::EngineIndex index(opt);

  std::printf("%-18s %-10s %-14s %-12s\n", "metric", "accuracy",
              "energy/query", "delay");
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    const bool binary = metric == DistanceMetric::kHamming;
    const auto& m = binary ? binary_model : model;
    index.configure(metric, binary ? 1 : 2);
    index.store(prototypes_of(m));

    std::size_t hits = 0;
    for (std::size_t s = 0; s < ds.test_x.rows(); ++s) {
      const auto query = m.encode_query(ds.test_x.row(s));
      const auto winner = index.search({query}).best().global_row;
      if (static_cast<int>(winner) == ds.test_y[s]) ++hits;
    }
    const double acc =
        static_cast<double>(hits) / static_cast<double>(ds.test_x.rows());
    const auto cost = index.engine().search_cost();
    std::printf("%-10s (%d-bit) %-10.3f %8.2f nJ   %8.2f ns\n",
                ferex::csp::to_string(metric).c_str(), binary ? 1 : 2, acc,
                cost.total_energy_j() * 1e9, cost.total_delay_s() * 1e9);
  }
  return 0;
}
