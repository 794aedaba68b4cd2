// AmIndex over a single FeReX macro (core::FerexEngine).
//
// The smallest serving deployment: one crossbar, bank 0 for every hit.
// Unbounded streaming inserts grow the one array row by row — callers
// that want the paper's bounded-macro geometry (and multi-bank fan-out)
// serve through BankedIndex instead.
#pragma once

#include "core/ferex.hpp"
#include "serve/am_index.hpp"

namespace ferex::serve {

class EngineIndex final : public AmIndex {
 public:
  explicit EngineIndex(core::FerexOptions options = {});

  /// One bank, the engine's; bank_rows 0.
  BackendState backend_state() const override;

  std::size_t stored_count() const noexcept override;
  std::size_t live_count() const noexcept override;
  std::size_t dims() const noexcept override;
  std::size_t bank_count() const noexcept override { return 1; }

  /// The wrapped engine, for cost models and encoding introspection the
  /// serving surface does not abstract.
  core::FerexEngine& engine() noexcept { return engine_; }
  const core::FerexEngine& engine() const noexcept { return engine_; }

 protected:
  void do_configure(csp::DistanceMetric metric, int bits) override;
  void do_store(const std::vector<std::vector<int>>& database) override;
  WriteReceipt do_insert(std::span<const int> vector) override;
  WriteReceipt do_remove(std::size_t global_row) override;
  WriteReceipt do_update(std::size_t global_row,
                         std::span<const int> vector) override;
  void do_configure_composite(csp::DistanceMetric metric, int bits) override;
  void do_restore_state(BackendState state) override;
  std::size_t do_compact() override;
  SearchResponse search_core(std::span<const int> query, std::size_t k,
                             std::uint64_t ordinal) const override;
  void validate_backend_query(std::span<const int> query) const override;

 private:
  core::FerexEngine engine_;
};

}  // namespace ferex::serve
