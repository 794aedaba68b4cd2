// Banked multi-macro FeReX architecture.
//
// A single FeReX macro is bounded (the paper evaluates up to 256 rows x
// 1024 dimensions; ScL settling and LTA resolution degrade beyond that).
// Real workloads — e.g. KNN over thousands of training vectors — need the
// database *banked* across several macros:
//
//   * rows are partitioned row-major across `bank_rows`-sized macros:
//     every bank but the last is full, so global row r lives in bank
//     r / bank_rows;
//   * one search broadcasts the query to every bank in parallel;
//   * each bank decides locally (its LTA winner for k = 1, its noiseless
//     top rows for k-NN);
//   * a global comparison stage over the bank results picks the overall
//     nearest rows — arch::merge_hits, the same noiseless head merge
//     the serving fleet runs over its shards, ties to the lowest row.
//
// Banks share the search-line drivers, so delay is one bank search plus
// the global-LTA stage; energy is the sum over banks plus the global
// stage.
//
// On the host, a circuit-fidelity search over at least
// core::kIntraQueryMinDevices devices fans its banks across
// util::parallel_for; each bank's row loop then runs inline under
// util::parallel's nesting rule, and a lone bank fans its rows instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ferex.hpp"
#include "core/hit.hpp"

namespace ferex::arch {

struct BankedOptions {
  std::size_t bank_rows = 128;      ///< max stored vectors per macro
  core::FerexOptions engine{};      ///< per-macro configuration
};

/// A database of vectors partitioned across FeReX macros.
class BankedAm {
 public:
  explicit BankedAm(BankedOptions options = {});

  /// Configures the distance function on every (current and future) bank.
  void configure(csp::DistanceMetric metric, int bits);

  /// Stores the database, partitioning rows across banks.
  void store(const std::vector<std::vector<int>>& database);

  /// Streaming insert. Freed (removed) slots are reused before any
  /// growth — banks are scanned in order for a free slot, and only when
  /// every slot is live does the vector append to the last bank or grow
  /// a fresh bank on demand (banks stay at most bank_rows tall).
  /// Requires configure(); the first insert establishes the
  /// dimensionality. Append searches are bit-identical to a fresh
  /// store() of the concatenated database — bank partitioning, per-bank
  /// seeds, and device variation all follow the same formulas; a reused
  /// slot keeps its own device variation, matching a fresh store() of
  /// the same physical layout. Returns where the row landed and its
  /// write cost. Throws without mutating on a wrong-length or
  /// out-of-alphabet vector.
  core::WriteReceipt insert(std::span<const int> vector);

  /// Deletes one row by global index: routes to the owning bank's
  /// engine, which erases the slot and masks it in the post-decoder (it
  /// can never be a hit; a bank whose rows are all removed stops firing
  /// entirely). The freed slot is the first insert() reuses. Returns the
  /// erase cost. Throws std::out_of_range on a bad index,
  /// std::logic_error when the row is already removed.
  core::WriteReceipt remove(std::size_t global_row);

  /// Overwrites one row in place by global index (erase + program-and-
  /// verify on a live slot, program-only on a removed one, which becomes
  /// live again). Validates before mutating.
  core::WriteReceipt update(std::size_t global_row,
                            std::span<const int> vector);

  std::size_t bank_count() const noexcept { return banks_.size(); }

  bool configured() const noexcept { return configured_; }
  csp::DistanceMetric metric() const noexcept { return metric_; }
  int bits() const noexcept { return bits_; }
  const BankedOptions& options() const noexcept { return options_; }

  /// The engine backing one bank (throws std::out_of_range) — cost
  /// models, per-bank liveness, and scheduling introspection.
  const core::FerexEngine& bank(std::size_t b) const {
    if (b >= banks_.size()) throw std::out_of_range("BankedAm::bank");
    return *banks_[b];
  }

  /// Physical slots across all banks (live + removed).
  std::size_t stored_count() const noexcept { return total_rows_; }

  /// Rows that compete in searches, summed across banks.
  std::size_t live_count() const noexcept;

  /// Banks holding at least one live row (an all-removed bank stops
  /// firing until a slot is revived).
  std::size_t live_bank_count() const noexcept;

  /// Logical dimensionality of the stored vectors (0 before any row).
  std::size_t dims() const noexcept {
    return banks_.empty() ? 0 : banks_.front()->dims();
  }

  /// Global nearest neighbor at an explicit query ordinal (k = 1): every
  /// live bank's LTA resolves its winner (search_hits_at at k = 1), then
  /// merge_hits picks between the bank winners. The margin is the gap to
  /// the best other bank winner; a sole live bank's own margin passes
  /// through. The ordinal selects every bank's comparator-noise stream,
  /// so results do not depend on execution order; the banked AM counts
  /// no ordinals (serve::BankedIndex does).
  /// When the work-size gate allows (several live banks, circuit
  /// fidelity, total devices across banks reaching
  /// core::kIntraQueryMinDevices), the banks fan across
  /// util::parallel_for — the hardware fires all macros at once, and a
  /// single query should too. The schedule never affects results.
  core::Hit search_at(std::span<const int> query,
                      std::uint64_t ordinal) const;

  /// The k-NN core: top-k rows nearest first with full hit detail
  /// (sensed current, margin to the best remaining row, nominal
  /// distance). Deterministic, unlike the single-NN path: each live bank
  /// senses its raw row currents and masks iteratively through a
  /// noiseless LTA for its best min(k + 1, live rows) — k when it is the
  /// only live bank — and merge_hits combines them. The one overfetched
  /// row per bank keeps the true runner-up in the merge, so the hits and
  /// margins equal one noiseless masking pass over every row. No
  /// comparator-noise draws, so it takes no ordinal. Banks fan as in
  /// search_at, each deciding inside the fan-out; `parallel_banks` pins
  /// the schedule instead (tests and per-layer timing pass false for the
  /// serial bank loop).
  std::vector<core::Hit> search_k_hits(
      std::span<const int> query, std::size_t k,
      std::optional<bool> parallel_banks = std::nullopt) const;

  /// Validates a query exactly as search_at and search_k_hits do: throws
  /// std::invalid_argument on wrong length, std::out_of_range on
  /// out-of-alphabet values, std::logic_error before any stored row.
  /// Exposed so serving layers can reject requests before consuming any
  /// query ordinal.
  void validate_query(std::span<const int> query) const;

  /// Delay of one banked search: banks operate in parallel, then the
  /// global comparator resolves bank winners.
  double search_delay_s() const;

  /// Energy of one banked search: all banks fire.
  double search_energy_j() const;

  /// Complete mutable state for a durable snapshot: every bank engine's
  /// state, in bank order. The byte format lives in serve/snapshot.
  struct BankedState {
    std::vector<core::FerexEngine::EngineState> banks;
  };

  /// Exports the current state (empty banks list before any store()).
  BankedState snapshot_state() const;

  /// Installs a previously exported state. Requires configure() with
  /// the same metric/bits/options the snapshot was taken under, and the
  /// shape store() and insert() produce: every bank but the last holding
  /// bank_rows rows, the last 1..bank_rows (else std::invalid_argument,
  /// with nothing changed). Banks are reconstructed with the same
  /// per-bank seed formula store() uses, then each engine restores its
  /// exact state — searches, and every subsequent insert's variation
  /// draw, are bit-identical to the uninterrupted instance.
  void restore_state(BankedState state);

  /// Tombstone compaction: re-packs the live rows densely via store(),
  /// which rebuilds every bank as a fresh engine — bit-identical to
  /// configure()+store() of the survivors on a fresh BankedAm. Returns
  /// the slots reclaimed.
  std::size_t compact();

 private:
  /// A configured, empty engine for bank `b`, with the per-bank seed
  /// decorrelation formula store() and insert() share (bit-identity of
  /// the two population paths depends on both using exactly this).
  std::unique_ptr<core::FerexEngine> make_bank(std::size_t b) const;
  /// Moves one bank's hits from its local rows to global rows.
  void to_global(std::size_t bank, std::vector<core::Hit>& hits) const;
  void check_query(std::span<const int> query) const;
  /// Work-size gate for fanning banks across the pool: several banks
  /// holding live rows, circuit fidelity, and total devices across banks
  /// at least core::kIntraQueryMinDevices — the gate the engine applies
  /// to its rows, so tiny banked configs never pay hand-off costs that
  /// dwarf the solve work.
  bool parallel_banks_worthwhile() const noexcept;

  BankedOptions options_;
  csp::DistanceMetric metric_ = csp::DistanceMetric::kHamming;
  int bits_ = 0;
  bool configured_ = false;
  std::vector<std::unique_ptr<core::FerexEngine>> banks_;
  std::size_t total_rows_ = 0;
  /// The global comparison stage's delay/energy model, and the noiseless
  /// comparator each bank's k-NN decision runs through.
  circuit::LtaCircuit global_lta_;
};

}  // namespace ferex::arch
