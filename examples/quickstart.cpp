// Quickstart: configure FeReX for a distance metric, store a few vectors,
// run nearest-neighbor searches, then reconfigure the SAME array for a
// different metric — the paper's headline capability. The engine is
// served through serve::EngineIndex, the request/response front door.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "serve/engine_index.hpp"

int main() {
  using ferex::csp::DistanceMetric;

  // 1. Create the index and configure the distance function. The CSP
  //    encoder (Algorithm 1) finds the minimal cell and the voltage
  //    configuration automatically.
  ferex::serve::EngineIndex index;
  const auto& engine = index.engine();
  index.configure(DistanceMetric::kHamming, /*bits=*/2);
  std::printf("Configured %s: %zu FeFETs/cell, %zu voltage levels\n",
              engine.distance_matrix().name().c_str(),
              engine.encoding().fefets_per_cell(),
              engine.encoding().ladder_levels());

  // 2. Store a small database of 2-bit vectors (values 0..3 per element).
  const std::vector<std::vector<int>> database{
      {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
      {3, 3, 3, 3, 3, 3}, {0, 1, 2, 3, 2, 1},
  };
  index.store(database);

  // 3. Search. The LTA flags the row with minimal current = distance.
  const std::vector<int> query{1, 1, 1, 1, 2, 1};
  auto best = index.search({query}).best();
  std::printf("Hamming NN of query: row %zu (distance %d)\n", best.global_row,
              best.nominal_distance);

  // 4. Reconfigure for Manhattan distance — same array, same data.
  index.configure(DistanceMetric::kManhattan, 2);
  best = index.search({query}).best();
  std::printf("Manhattan NN of query: row %zu (distance %d)\n",
              best.global_row, best.nominal_distance);

  // 5. And Euclidean. k-NN works too.
  index.configure(DistanceMetric::kEuclideanSquared, 2);
  const auto top3 = index.search({query, /*k=*/3}).hits;
  std::printf("Euclidean top-3 rows: %zu %zu %zu\n", top3[0].global_row,
              top3[1].global_row, top3[2].global_row);

  // 6. Per-search energy/delay from the Fig. 6 model.
  const auto cost = engine.search_cost();
  std::printf("Search: %.2f pJ total, %.2f ns (%.0f%% ScL settling)\n",
              cost.total_energy_j() * 1e12, cost.total_delay_s() * 1e9,
              100.0 * cost.scl_settle_s / cost.total_delay_s());
  return 0;
}
