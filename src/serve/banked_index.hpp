// AmIndex over the banked multi-macro architecture (arch::BankedAm).
//
// The scale-out deployment: rows partition across bank_rows-sized macros,
// one search fires every bank, streaming inserts grow fresh banks on
// demand. Hit semantics follow the hardware:
//   * k = 1 runs the two-stage path (per-bank LTA + global comparator);
//     the hit's margin is the sensed gap between the two best bank
//     winners — exactly BankedAm::search_at at the request's ordinal;
//   * k > 1 runs the post-decoder masking path over the concatenated row
//     currents (deterministic: no per-bank LTA decisions, so no
//     comparator-noise draws) — exactly BankedAm::search_k_hits.
#pragma once

#include "arch/banked_am.hpp"
#include "serve/am_index.hpp"

namespace ferex::serve {

class BankedIndex final : public AmIndex {
 public:
  explicit BankedIndex(arch::BankedOptions options = {});

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
  SearchResponse search_core(std::span<const int> query, std::size_t k,
                             std::uint64_t ordinal) const override;
  void validate_backend_query(std::span<const int> query) const override;

 private:
  arch::BankedAm banked_;
};

}  // namespace ferex::serve
