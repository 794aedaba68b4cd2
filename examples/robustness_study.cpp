// Device-variation robustness study (the Fig. 7 methodology, as an
// example application of the library's Monte-Carlo facilities).
//
// Sweeps the FeFET Vth sigma around the paper's 54 mV operating point and
// reports worst-case nearest-neighbor accuracy, showing how the ladder
// margin translates variation into search errors.
#include <cstdio>
#include <vector>

#include "serve/engine_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

/// One Monte-Carlo trial: fresh array instance (fresh device variation),
/// a query whose true neighbor is at Hamming distance `d_near` with
/// distractors at `d_near + 1`. Returns true if the LTA finds the right
/// row — the hardest case the paper reports (margin of one unit current).
bool trial(double sigma_vth_v, int d_near, std::uint64_t seed) {
  ferex::core::FerexOptions opt;
  opt.circuit.variation.sigma_vth_v = sigma_vth_v;
  opt.seed = seed;
  ferex::serve::EngineIndex index(opt);
  index.configure(ferex::csp::DistanceMetric::kHamming, 2);

  const std::size_t dims = 64;
  ferex::util::Rng rng(seed ^ 0xabcdef);
  std::vector<int> query(dims);
  for (auto& v : query) v = static_cast<int>(rng.uniform_below(4));

  // Flip exactly `bits_away` distinct bit positions (each element holds
  // two bits) to land at a precise Hamming distance from the query.
  auto at_distance = [&](int bits_away) {
    auto vec = query;
    std::vector<std::size_t> chosen;
    while (chosen.size() < static_cast<std::size_t>(bits_away)) {
      const auto slot = rng.uniform_below(dims * 2);
      bool duplicate = false;
      for (auto s : chosen) duplicate |= (s == slot);
      if (!duplicate) chosen.push_back(slot);
    }
    for (auto slot : chosen) vec[slot / 2] ^= (1 << (slot % 2));
    return vec;
  };

  std::vector<std::vector<int>> db;
  db.push_back(at_distance(d_near));
  for (int i = 0; i < 15; ++i) db.push_back(at_distance(d_near + 1));
  index.store(db);
  return index.search({query}).best().global_row == 0;
}

}  // namespace

int main() {
  constexpr int kRuns = 100;
  std::printf("Monte-Carlo NN accuracy vs Vth variation "
              "(nearest at HD=5, distractors at HD=6; %d runs)\n\n", kRuns);
  std::printf("%-14s %-10s %-12s\n", "sigma_Vth", "accuracy", "95% CI");
  for (double sigma_mv : {0.0, 27.0, 54.0, 81.0, 108.0, 135.0}) {
    int correct = 0;
    for (int run = 0; run < kRuns; ++run) {
      if (trial(sigma_mv * 1e-3, 5, 42 + static_cast<std::uint64_t>(run))) {
        ++correct;
      }
    }
    const double acc = static_cast<double>(correct) / kRuns;
    const double ci = ferex::util::wilson_half_width(acc, kRuns);
    std::printf("%6.0f mV      %-10.2f +/- %.2f%s\n", sigma_mv, acc, ci,
                sigma_mv == 54.0 ? "   <- paper's operating point" : "");
  }
  return 0;
}
