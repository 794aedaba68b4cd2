#include "circuit/lta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ferex::circuit {

LtaDecision LtaCircuit::decide(std::span<const double> row_currents_a,
                               double unit_current_a, util::Rng* rng,
                               std::span<const std::uint8_t> live) const {
  if (row_currents_a.empty()) {
    throw std::invalid_argument("LtaCircuit::decide: no rows");
  }
  if (!live.empty() && live.size() != row_currents_a.size()) {
    throw std::invalid_argument(
        "LtaCircuit::decide: live mask size != row count");
  }
  LtaDecision decision;
  double best = std::numeric_limits<double>::infinity();
  double second = std::numeric_limits<double>::infinity();
  std::size_t competing = 0;
  const double sigma = params_.offset_sigma_rel * unit_current_a;
  for (std::size_t r = 0; r < row_currents_a.size(); ++r) {
    // A masked row's branch is disconnected ahead of the comparator: it
    // neither competes nor draws offset noise.
    if (!live.empty() && live[r] == 0) continue;
    ++competing;
    double sensed = row_currents_a[r];
    if (rng != nullptr && sigma > 0.0) sensed += rng->gaussian(0.0, sigma);
    if (sensed < best) {
      second = best;
      best = sensed;
      decision.winner = r;
    } else if (sensed < second) {
      second = sensed;
    }
  }
  if (competing == 0) {
    throw std::invalid_argument("LtaCircuit::decide: no live rows");
  }
  decision.winner_current_a = best;
  decision.margin_a = (competing > 1) ? second - best : 0.0;
  return decision;
}

std::vector<LtaDecision> LtaCircuit::decide_k_detailed(
    std::span<const double> row_currents_a, double unit_current_a,
    std::size_t k, util::Rng* rng, std::span<const std::uint8_t> live) const {
  if (!live.empty() && live.size() != row_currents_a.size()) {
    throw std::invalid_argument(
        "LtaCircuit::decide_k_detailed: live mask size != row count");
  }
  std::size_t live_rows = row_currents_a.size();
  if (!live.empty()) {
    live_rows = 0;
    for (const std::uint8_t l : live) live_rows += l != 0 ? 1 : 0;
  }
  if (k == 0 || k > live_rows) {
    throw std::invalid_argument("LtaCircuit::decide_k_detailed: bad k");
  }
  std::vector<double> currents(row_currents_a.begin(), row_currents_a.end());
  std::vector<LtaDecision> decisions;
  decisions.reserve(k);
  for (std::size_t round = 0; round < k; ++round) {
    decisions.push_back(decide(currents, unit_current_a, rng, live));
    // Mask the winner for subsequent rounds (post-decoder disables the
    // row branch). Unlike a dead row, a round winner stays live and
    // keeps drawing comparator noise — only its current is driven away.
    currents[decisions.back().winner] = std::numeric_limits<double>::infinity();
  }
  return decisions;
}

double LtaCircuit::delay_s(std::size_t rows) const noexcept {
  const double lg = rows > 1 ? std::log2(static_cast<double>(rows)) : 0.0;
  return params_.base_delay_s + params_.delay_per_log2_row_s * lg;
}

double LtaCircuit::energy_j(std::size_t rows, double duration_s) const noexcept {
  const double power =
      params_.core_power_w + params_.per_row_power_w * static_cast<double>(rows);
  return power * duration_s;
}

}  // namespace ferex::circuit
