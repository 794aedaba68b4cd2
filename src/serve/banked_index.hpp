// AmIndex over the banked multi-macro architecture (arch::BankedAm).
//
// The scale-out deployment: rows partition across bank_rows-sized macros,
// one search fires every bank, streaming inserts grow fresh banks on
// demand. Hit semantics follow the hardware, and both paths combine the
// banks through arch::merge_hits, the fleet's head merge:
//   * k = 1 runs each live bank's LTA at the request's ordinal, then
//     merges the bank winners; the hit's margin is the sensed gap to the
//     best other bank winner (a sole live bank's own margin) — exactly
//     BankedAm::search_at;
//   * k > 1 masks each live bank's row currents through a noiseless LTA
//     (no comparator-noise draws), overfetching one row per bank so the
//     merged margins are the gaps to the best remaining row — exactly
//     BankedAm::search_k_hits.
#pragma once

#include "arch/banked_am.hpp"
#include "serve/am_index.hpp"

namespace ferex::serve {

class BankedIndex final : public AmIndex {
 public:
  explicit BankedIndex(arch::BankedOptions options = {});

  /// Every bank's state, in bank order. No composite encodings: banks
  /// configure monolithic ones.
  BackendState backend_state() const override;

  std::size_t stored_count() const noexcept override;
  std::size_t live_count() const noexcept override;
  std::size_t dims() const noexcept override;
  std::size_t bank_count() const noexcept override;

  /// The wrapped banked AM, for the architecture-level delay/energy
  /// models the serving surface does not abstract.
  arch::BankedAm& banked() noexcept { return banked_; }
  const arch::BankedAm& banked() const noexcept { return banked_; }

 protected:
  void do_configure(csp::DistanceMetric metric, int bits) override;
  void do_store(const std::vector<std::vector<int>>& database) override;
  WriteReceipt do_insert(std::span<const int> vector) override;
  WriteReceipt do_remove(std::size_t global_row) override;
  WriteReceipt do_update(std::size_t global_row,
                         std::span<const int> vector) override;
  void do_restore_state(BackendState state) override;
  std::size_t do_compact() override;
  SearchResponse search_core(std::span<const int> query, std::size_t k,
                             std::uint64_t ordinal) const override;
  void validate_backend_query(std::span<const int> query) const override;

 private:
  arch::BankedAm banked_;
};

}  // namespace ferex::serve
