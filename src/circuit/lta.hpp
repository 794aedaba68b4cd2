// Loser-Take-All (LTA) circuit — the nearest-neighbor detector.
//
// The LTA compares the aggregated ScL currents of all rows and flags the
// row with the MINIMUM current, i.e. the stored vector at the smallest
// distance from the query (Sec. III-A; current-domain WTA dual, cf.
// CoSiME ICCAD'22). Real comparators have input-referred offset, modeled
// as per-row Gaussian current noise; that offset is what limits sensing
// when two rows' distances differ by one unit current.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ferex::circuit {

struct LtaParams {
  /// Comparator input-referred offset, relative to the unit current I0.
  double offset_sigma_rel = 0.03;
  /// Static power of the shared comparison core [W].
  double core_power_w = 12e-6;
  /// Incremental power per competing row branch [W] (grows only weakly
  /// with rows — the paper notes LTA power is insignificant at scale).
  double per_row_power_w = 0.15e-6;
  /// Base decision delay plus a logarithmic term in the row count [s].
  double base_delay_s = 2.0e-9;
  double delay_per_log2_row_s = 0.5e-9;
};

/// Result of one LTA decision.
struct LtaDecision {
  std::size_t winner = 0;          ///< row index with minimum sensed current
  double winner_current_a = 0.0;   ///< sensed (noisy) current of the winner
  double margin_a = 0.0;           ///< gap to the runner-up (sensed)
};

class LtaCircuit {
 public:
  explicit LtaCircuit(LtaParams params = {}) : params_(params) {}

  const LtaParams& params() const noexcept { return params_; }

  /// Picks the minimum-current row. `unit_current_a` scales the offset
  /// noise; pass rng = nullptr for an ideal (noiseless) decision.
  ///
  /// `live` is the post-decoder row mask (nonzero = row branch enabled):
  /// a masked row's comparator branch is physically disconnected, so it
  /// is skipped outright — it can never win and, crucially, it draws no
  /// comparator-offset noise, leaving the live rows' noise sequence
  /// exactly what it would be over an array holding only the live rows.
  /// An empty mask means every row is live; otherwise the mask must
  /// match the currents in length and enable at least one row.
  LtaDecision decide(std::span<const double> row_currents_a,
                     double unit_current_a, util::Rng* rng,
                     std::span<const std::uint8_t> live = {}) const;

  /// k-NN extension: repeatedly applies the LTA, masking previous
  /// winners (the paper's LTA + post-decoder supports NN search; k > 1 is
  /// realized by iterative masking). Returns the per-round decisions,
  /// nearest first: each carries the round's winner, its sensed current,
  /// and its margin to the best remaining (unmasked) row — what a serving
  /// layer needs to report top-k hits. Round 0 is bit-identical to
  /// decide() over the same currents and rng state; on the final round
  /// with every other row masked the margin is +infinity (nothing left
  /// to compare against).
  ///
  /// `live` (see decide) bounds k: 1 <= k <= live rows. Round winners
  /// are masked by driving their current to +infinity while staying
  /// live — a disabled-but-drawn branch, the pre-mutation behaviour —
  /// whereas dead rows are skipped with no draw at all.
  std::vector<LtaDecision> decide_k_detailed(
      std::span<const double> row_currents_a, double unit_current_a,
      std::size_t k, util::Rng* rng,
      std::span<const std::uint8_t> live = {}) const;

  /// Decision delay for an array with `rows` competing branches.
  double delay_s(std::size_t rows) const noexcept;

  /// Energy of one decision over `rows` branches taking `duration_s`.
  double energy_j(std::size_t rows, double duration_s) const noexcept;

 private:
  LtaParams params_;
};

}  // namespace ferex::circuit
